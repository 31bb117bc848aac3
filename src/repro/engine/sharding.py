"""Shard-parallel fixpoint evaluation: partitioned deltas, replicated state.

This is the scaling step the ROADMAP's north star asks for: the serving
path was made fully incremental (maintained materializations + tabled
subgoals), leaving the single-process ceiling as the remaining bottleneck.
The sharded engine splits the *work* of every semi-naive round across
``shard_count`` workers:

* each relation's rows have a **home shard**, decided by the hash-partition
  layer (:mod:`repro.storage.partition`);
* every round's delta facts are partitioned by home shard, and each worker
  runs the delta-restricted rule applications for *its* partition only —
  through the existing :class:`~repro.engine.evaluation.RuleEvaluator` and
  its compiled-plan cache, so the per-shard inner loop is exactly the
  single-process one;
* between rounds the workers exchange the **cross-shard delta rows**: a
  worker applies its own derivations locally and receives only the rows the
  *other* shards derived (the replicated update stream), so the next round's
  frontier is again partitioned.

Joins in Sequence Datalog bodies are not generally key-aligned (a rule may
join on any argument, or on path *prefixes*), so by default each worker
keeps a full **replica** of the instance for join completeness — sharding
partitions the delta-restricted work and the ownership bookkeeping, not the
readable state.  The consumer-aligned planner
(:func:`repro.storage.partition.choose_sharding_plan`) upgrades that
default per stratum: a stratum proved ``aligned`` runs on bare partitions,
and a stratum proved ``local`` (every rule reads only rows co-located with
its head, small relations replicated to every worker) additionally runs
whole fixpoints worker-resident — micro-rounds without exchange barriers,
foreign derivations dropped because the home worker derives its own copy.
The partitioned view itself is materialized as a :class:`ShardedInstance`
(one :class:`~repro.model.instance.Instance` per shard) whose balance the
benchmarks assert on.

Two :class:`ParallelExecutor` backends run the rounds:

* :class:`SequentialExecutor` — in-process: the "workers" share the
  authoritative instance and run in shard order.  Deterministic, no copies,
  no pickling; this is the mode the property tests drive, and it must be
  indistinguishable from single-process evaluation (``sharded ≡ single``).
* :class:`ProcessExecutor` — one single-worker ``concurrent.futures``
  process pool per shard (pinning shard *i*'s tasks to process *i*, which a
  shared pool would not guarantee).  Each worker is initialized with a
  pickled snapshot of the instance and caught up between rounds with the
  queued cross-shard rows; small rounds (below
  :attr:`ProcessExecutor.min_round_rows`) run in-process on the parent,
  because for serving-sized deltas the pickling would dwarf the work.

:func:`goal_shard_footprint` is the tabling hook: the sound (and
deliberately narrow) static analysis that lets a tabled subgoal record which
shards its answers can possibly depend on, so updates routed elsewhere are
mirrored without any maintenance propagation.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Collection, Iterable

from repro.engine.evaluation import DEFAULT_EXECUTION, ExecutionMode
from repro.engine.fixpoint import (
    EvaluationStatistics,
    ProgramEvaluators,
    _apply_rules_seminaive,
    evaluate_program,
    rederivable,
)
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.errors import EvaluationError
from repro.model.instance import Fact, Instance
from repro.model.terms import Packed, Path
from repro.storage.partition import (
    ShardingPlan,
    ShardingSpec,
    plan_for_spec,
    repartition_pays,
    stable_hash_path,
)
from repro.syntax.programs import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.transform.magic import MagicProgram

__all__ = [
    "ParallelExecutor",
    "ProcessExecutor",
    "SequentialExecutor",
    "ShardedFixpoint",
    "ShardedInstance",
    "goal_shard_footprint",
]


class ShardedInstance:
    """A hash-partitioned view of an instance: one sub-instance per shard.

    Every fact lives in exactly one shard (its home, per the spec's shard
    keys); the union of the shards is extensionally the tracked instance.
    The sharded fixpoints maintain one of these alongside the authoritative
    instance so the partition — sizes, balance, per-shard row sets — is
    always inspectable without re-routing the whole fact set.
    """

    __slots__ = ("spec", "shards")

    def __init__(self, spec: ShardingSpec, shards: "list[Instance] | None" = None):
        self.spec = spec
        if shards is None:
            shards = [Instance() for _ in range(spec.shard_count)]
        elif len(shards) != spec.shard_count:
            raise EvaluationError(
                f"expected {spec.shard_count} shards, got {len(shards)}"
            )
        self.shards = shards

    @classmethod
    def from_instance(cls, instance: Instance, spec: ShardingSpec) -> "ShardedInstance":
        """Route every fact of *instance* to its home shard."""
        sharded = cls(spec)
        for name in instance.relation_names:
            for shard, rows in enumerate(spec.partition_rows(name, instance.relation(name))):
                if rows:
                    sharded.shards[shard].set_relation_rows(name, rows)
        return sharded

    def shard_of(self, fact: Fact) -> int:
        """The home shard of *fact*."""
        return self.spec.shard_of_fact(fact)

    def add_fact(self, fact: Fact) -> None:
        """Insert *fact* into its home shard."""
        self.shards[self.spec.shard_of_fact(fact)].add_fact(fact)

    def discard_fact(self, fact: Fact) -> None:
        """Remove *fact* from its home shard (the relation stays present)."""
        self.shards[self.spec.shard_of_fact(fact)].discard_fact(fact, keep_empty=True)

    def shard_sizes(self) -> list[int]:
        """Fact counts per shard — the balance the benchmarks assert on."""
        return [shard.fact_count() for shard in self.shards]

    def fact_count(self) -> int:
        return sum(shard.fact_count() for shard in self.shards)

    def __len__(self) -> int:
        return self.fact_count()

    def merged(self) -> Instance:
        """The union of all shards as one plain instance."""
        merged = Instance()
        for shard in self.shards:
            for name in shard.relation_names:
                for row in shard.relation(name):
                    merged.add_fact(Fact(name, row))
        return merged

    def __repr__(self) -> str:
        return f"ShardedInstance({self.spec.shard_count} shards, sizes={self.shard_sizes()})"


# -- executors -------------------------------------------------------------------------


class ParallelExecutor:
    """How shard-partitioned rounds actually execute.

    The base protocol: :meth:`attach` binds the executor to a program and an
    instance snapshot, :meth:`sync` records facts the parent applied to the
    authoritative instance (so replicas, if any, can catch up), and
    :meth:`round` runs one delta-restricted semi-naive round per shard —
    returning ``None`` to mean "no remote workers ran; the caller should run
    the round in-process".  The sequential executor is exactly that
    ``None``: shard-partitioned work executed deterministically in shard
    order on the parent, sharing the authoritative instance.
    """

    kind = "sequential"

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise EvaluationError(f"shard_count must be at least 1, got {shard_count}")
        self.shard_count = shard_count
        self._exchanged = 0

    def attach(
        self,
        program: Program,
        limits: EvaluationLimits,
        execution: ExecutionMode,
        instance: Instance,
        *,
        spec: "ShardingSpec | None" = None,
        partitioned: bool = False,
        partitions: "list[Instance] | None" = None,
        modes: "tuple[str, ...]" = (),
    ) -> None:
        """(Re)bind to *program* over a snapshot of *instance*.

        *partitioned* asserts that every stratum of *program* runs sound on
        bare partitions under *spec* (every mode in the sharding plan is
        ``aligned`` or ``local``): workers then hold only their own
        partition of every non-replicated relation instead of a full
        replica (relations in ``spec.replicated`` are copied to every
        worker in full), and catch-up traffic routes each row to its home
        shard only.  *partitions* optionally hands over an already-routed
        per-shard split of *instance* (the owner's mirror), so attaching
        does not hash-partition the same rows a second time.  *modes* is
        the plan's per-stratum mode tuple — ``local`` strata may run
        worker-resident fixpoints (:meth:`run_stratum`) and worker-local
        DRed phases (:meth:`dred`).
        """

    def sync(
        self,
        added: "Collection[Fact]",
        removed: "Collection[Fact]" = (),
        *,
        derived_by: "list[set[Fact]] | None" = None,
    ) -> None:
        """Record a delta the parent applied, for replica catch-up (if any).

        *derived_by* names, per shard, the facts that shard's worker derived
        (and already applied locally) this round — they are excluded from
        that worker's catch-up batch, so only the *cross-shard* rows travel.
        """

    def take_exchanged(self) -> int:
        """Rows actually shipped to workers since the last call (and reset).

        The sequential executor shares the authoritative instance, so
        nothing ever travels and this stays zero; the process executor
        counts catch-up rows at dispatch time.
        """
        count = self._exchanged
        self._exchanged = 0
        return count

    def take_exchange_stats(self) -> "tuple[int, int]":
        """``(exchange_batches, exchanged_bytes)`` since the last call (and reset).

        Batches count parent→worker dispatches (deltas queue up and flush
        once per exchange barrier); bytes count the id payload shipped in
        either direction, 8 per interned id — a deterministic measure that
        does not depend on pickling details.  In-process executors never
        ship anything.
        """
        return (0, 0)

    def round(
        self,
        stratum_index: int,
        frontier_parts: "list[set[Fact]]",
        stats_parts: "list[EvaluationStatistics]",
    ) -> "list[set[Fact]] | None":
        """Run one semi-naive round, or return ``None`` for an in-process round."""
        return None

    def run_stratum(
        self,
        stratum_index: int,
        frontier_parts: "list[set[Fact]]",
        stats_parts: "list[EvaluationStatistics]",
    ) -> "tuple[list[set[Fact]], int] | None":
        """Run a whole delta cascade worker-resident (``local`` strata only).

        Returns per-shard net-new facts plus the deepest worker round
        count, or ``None`` when the caller should fall back to barriered
        :meth:`round` / in-process rounds.
        """
        return None

    def dred(
        self,
        stratum_index: int,
        changed: "dict[str, tuple[set, set]]",
        seed_parts: "list[set[Fact]]",
        pinned_parts: "list[set[Fact]]",
        stats_parts: "list[EvaluationStatistics]",
    ) -> "tuple[list[tuple[set[Fact], set[Fact]]], int] | None":
        """Run the overdeletion/rederivation phases worker-local, or ``None``.

        *changed* maps each changed relation to its ``(added_rows,
        removed_rows)`` sets (the workers rebuild the pre-update overlay
        from them); *seed_parts* routes the removed body facts, broadcast
        for replicated relations.  Returns per-shard ``(overdeleted,
        rederived)`` pairs plus the overdeletion round count.
        """
        return None

    def counting(
        self,
        stratum_index: int,
        changed: "dict[str, tuple[set, set]]",
        pivot_parts: "list[dict[str, tuple[set, set]]]",
        stats_parts: "list[EvaluationStatistics]",
    ) -> "list[dict[Fact, int]] | None":
        """Run a counting stratum's signed delta joins worker-local, or ``None``.

        *changed* carries the full per-relation delta (overlay rebuild);
        *pivot_parts* routes each shard its home slice of the pivot rows.
        Returns per-shard ``fact → signed count`` dicts whose sum is the
        stratum's exact derivation-count delta.
        """
        return None

    def repartition(self, keys: "dict[str, int]", rows_by_name: "dict[str, Collection]") -> None:
        """Adopt new shard keys and redistribute *rows_by_name* accordingly.

        The caller has already updated the spec's key table; in-process
        executors share the authoritative instance, so only the process
        executor moves rows.
        """

    @property
    def supports_router(self) -> bool:
        """Whether whole-stratum router-mode fixpoints can run here (see
        :class:`ProcessExecutor`); the in-process executors never need them."""
        return False

    @property
    def supports_worker_goals(self) -> bool:
        """Whether partition-local goal queries can run on a resident worker."""
        return False

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SequentialExecutor(ParallelExecutor):
    """Deterministic in-process execution: shards run one after another.

    This is the reference mode — zero copies, zero pickling, bit-identical
    to single-process evaluation — used by tests and as the default for
    :class:`~repro.engine.query.QuerySession` sharding.
    """


# -- the wire codec --------------------------------------------------------------------
#
# Facts cross the process boundary constantly (catch-up batches, frontiers,
# derived rows); pickling ``Fact``/``Path`` objects costs ~8× the bytes and
# time of the equivalent plain tuples (per-object reduce overhead).  The
# wire format is therefore two-layered:
#
# * a path *definition* is nested builtin tuples only — a tuple whose items
#   are atoms (``str``) or packed values (a 1-tuple wrapping the inner
#   path); this is the only self-describing form and it crosses each link
#   exactly once per distinct path;
# * a *row* is a tuple of small ints — per-link interned path ids, exactly
#   the :class:`~repro.storage.columnar.TermTable` idea applied to the
#   process boundary.  Each direction of each parent↔worker link has a
#   :class:`WireEncoder` at the sender and a :class:`WireDecoder` at the
#   receiver; ids are assigned densely at first sight and the definitions
#   of the ids a batch introduces travel FIFO *with that batch* (the
#   ``defs`` prefix), so id == list index on both sides with no handshake.
#
# Rows repeat heavily across rounds (a derived fact is synced to replicas
# and re-shipped as the next round's frontier; unary atoms recur in
# thousands of rows), so after the first sight every occurrence costs one
# int instead of a nested tuple — the payload reduction is measured and
# reported by ``benchmarks/bench_sharding.py``.


def _encode_path(path: Path) -> tuple:
    return tuple(
        element if isinstance(element, str) else (_encode_path(element.contents),)
        for element in path.elements
    )


def _decode_path(encoded: tuple) -> Path:
    return Path(
        tuple(
            item if isinstance(item, str) else Packed(_decode_path(item[0]))
            for item in encoded
        )
    )


class WireEncoder:
    """The sending half of one link direction: paths become dense int ids.

    ``encode_row`` interns by :class:`~repro.model.terms.Path` (the hot
    lookup — it replaces the per-round row-encoding cache the executor used
    to keep); ``def_id`` interns by an already-encoded definition, which is
    what lets the parent *router* re-encode a foreign row for its home
    worker's link without ever building a Path.  ``take_defs`` drains the
    definitions not yet shipped — call it once per dispatched batch, after
    everything in the batch has been encoded.
    """

    __slots__ = ("_by_path", "_by_def", "_defs", "_shipped")

    def __init__(self):
        self._by_path: "dict[Path, int]" = {}
        self._by_def: "dict[tuple, int]" = {}
        self._defs: "list[tuple]" = []  # id -> definition (densely indexed)
        self._shipped = 0  # ids below this are known to the receiver

    def path_id(self, path: Path) -> int:
        ident = self._by_path.get(path)
        if ident is None:
            definition = _encode_path(path)
            ident = self._by_def.get(definition)
            if ident is None:
                ident = len(self._defs)
                self._by_def[definition] = ident
                self._defs.append(definition)
            self._by_path[path] = ident
        return ident

    def def_id(self, definition: tuple) -> int:
        ident = self._by_def.get(definition)
        if ident is None:
            ident = self._by_def[definition] = len(self._defs)
            self._defs.append(definition)
        return ident

    def encode_row(self, row: "tuple[Path, ...]") -> "tuple[int, ...]":
        return tuple(self.path_id(path) for path in row)

    def take_defs(self) -> "list[tuple]":
        """The definitions introduced since the last batch (FIFO, id order)."""
        start = self._shipped
        self._shipped = len(self._defs)
        return self._defs[start:]

    def def_row(self, id_row: "tuple[int, ...]") -> tuple:
        """The self-describing (nested-tuple) form of *id_row* — measurement only."""
        defs = self._defs
        return tuple(defs[ident] for ident in id_row)

    def clone(self) -> "WireEncoder":
        """A copy sharing no state — for links seeded with one shared snapshot."""
        other = WireEncoder()
        other._by_path = dict(self._by_path)
        other._by_def = dict(self._by_def)
        other._defs = list(self._defs)
        other._shipped = self._shipped
        return other


class WireDecoder:
    """The receiving half: absorb each batch's defs, look rows up by id.

    Paths are built lazily and memoised per id — the router-mode parent
    never asks for them at all (it forwards definitions verbatim), and in
    replicated rounds each distinct path is decoded once however many rows
    it appears in.
    """

    __slots__ = ("_defs", "_paths")

    def __init__(self):
        self._defs: "list[tuple]" = []
        self._paths: "list[Path | None]" = []

    def absorb(self, defs: "list[tuple]") -> None:
        self._defs.extend(defs)
        self._paths.extend([None] * len(defs))

    def path(self, ident: int) -> Path:
        decoded = self._paths[ident]
        if decoded is None:
            decoded = self._paths[ident] = _decode_path(self._defs[ident])
        return decoded

    def decode_row(self, id_row: "tuple[int, ...]") -> "tuple[Path, ...]":
        return tuple(self.path(ident) for ident in id_row)

    def definition(self, ident: int) -> tuple:
        return self._defs[ident]

    def def_row(self, id_row: "tuple[int, ...]") -> tuple:
        defs = self._defs
        return tuple(defs[ident] for ident in id_row)


# -- packed id blocks ------------------------------------------------------------------
#
# Interned rows still cost a tuple object (and its pickle frame) per row.
# The exchange payloads therefore ship *blocks*: all rows of one relation
# (and arity) flattened into a single id array (``array('q')`` in the
# general case; links whose id space still fits ship narrower typecodes),
# with an explicit row count so arity-0 rows survive.  A block is
# ``(name, arity, count, ids)`` — ship blocks prefix the home shard,
# catch-up segments prefix the op flags — and pickles as one buffer
# instead of thousands of small tuples.


def _pack_ids(ids: "list[int]") -> "array":
    """The flat ids as the narrowest array type they fit (ids are dense,
    assigned per link at first sight, so most links never outgrow 16 bits)."""
    top = max(ids, default=0)
    if top < 1 << 16:
        typecode = "H"
    elif top < 1 << 32:
        typecode = "I"
    else:
        typecode = "q"
    return array(typecode, ids)


class _BlockPacker:
    """Accumulate id rows into per-``(tag, arity)`` flat id-array blocks."""

    __slots__ = ("_blocks",)

    def __init__(self):
        self._blocks: "dict[tuple, list]" = {}

    def add(self, tag, id_row: "tuple[int, ...]") -> None:
        key = (tag, len(id_row))
        entry = self._blocks.get(key)
        if entry is None:
            entry = self._blocks[key] = [0, []]
        entry[0] += 1
        entry[1].extend(id_row)

    def blocks(self) -> "list[tuple]":
        out = []
        for (tag, arity), (count, ids) in self._blocks.items():
            packed = _pack_ids(ids)
            if isinstance(tag, tuple):
                out.append((*tag, arity, count, packed))
            else:
                out.append((tag, arity, count, packed))
        return out


def _iter_id_rows(arity: int, count: int, ids: "array"):
    """The id rows of one block, as plain int tuples."""
    if arity == 0:
        for _ in range(count):
            yield ()
        return
    for start in range(0, arity * count, arity):
        yield tuple(ids[start : start + arity])


def _decode_block_rows(decoder: WireDecoder, arity: int, count: int, ids: "array"):
    """The path rows of one block, decoded through *decoder*."""
    decode = decoder.decode_row
    for id_row in _iter_id_rows(arity, count, ids):
        yield decode(id_row)


def _decode_fact_blocks(decoder: WireDecoder, blocks: "list[tuple]") -> "set[Fact]":
    facts: "set[Fact]" = set()
    for name, arity, count, ids in blocks:
        facts.update(
            Fact(name, row) for row in _decode_block_rows(decoder, arity, count, ids)
        )
    return facts


def _encode_fact_blocks(encoder: WireEncoder, facts: "Iterable[Fact]") -> "list[tuple]":
    packer = _BlockPacker()
    for fact in facts:
        packer.add(fact.relation, encoder.encode_row(fact.paths))
    return packer.blocks()


def _encode_counted_blocks(
    encoder: WireEncoder, counts: "dict[Fact, int]"
) -> "tuple[list[tuple], list[tuple[int, ...]]]":
    """Encode fact→signed-count pairs as standard fact blocks plus a parallel
    per-block tuple of counts (blocks keep ``ids`` last, so the byte-level
    accounting helpers keep working)."""
    packer = _BlockPacker()
    signs: "dict[tuple, list[int]]" = {}
    for fact, value in counts.items():
        row = encoder.encode_row(fact.paths)
        packer.add(fact.relation, row)
        signs.setdefault((fact.relation, len(row)), []).append(value)
    blocks = packer.blocks()
    return blocks, [tuple(signs[(name, arity)]) for name, arity, _count, _ids in blocks]


def _decode_counted_blocks(
    decoder: WireDecoder, blocks: "list[tuple]", block_signs: "list[tuple[int, ...]]"
) -> "dict[Fact, int]":
    counts: "dict[Fact, int]" = {}
    for (name, arity, count, ids), signs in zip(blocks, block_signs):
        for row, value in zip(_decode_block_rows(decoder, arity, count, ids), signs):
            counts[Fact(name, row)] = value
    return counts


def _encode_row_blocks(encoder: WireEncoder, name: str, rows: "Iterable") -> "list[tuple]":
    packer = _BlockPacker()
    for row in rows:
        packer.add(name, encoder.encode_row(row))
    return packer.blocks()


def _pack_catchup(ops: "list[tuple[bool, str, tuple, bool]]") -> "list[tuple]":
    """Merge ordered per-row catch-up ops into packed segments.

    A segment is ``(added, name, countable, arity, count, ids)``; runs of
    ops with identical flags merge, and segment order preserves op order —
    an add after a remove of the same row must land after it.
    """
    segments: "list[list]" = []
    last_key = None
    for added, name, row, countable in ops:
        key = (added, name, countable, len(row))
        if key == last_key:
            segment = segments[-1]
            segment[4] += 1
            segment[5].extend(row)
        else:
            last_key = key
            segments.append([added, name, countable, len(row), 1, list(row)])
    return [(*segment[:5], _pack_ids(segment[5])) for segment in segments]


def _nested_blocks(codec, blocks: "list[tuple]") -> "list[tuple]":
    """The per-row nested-tuple form of *blocks* — payload measurement only."""
    nested = []
    for block in blocks:
        *head, arity, count, ids = block
        rows = [codec.def_row(id_row) for id_row in _iter_id_rows(arity, count, ids)]
        nested.append((*head, rows))
    return nested


# Worker-process state for :class:`ProcessExecutor`: each single-worker pool
# initializes exactly one of these in its (dedicated) child process.
_WORKER: dict = {}


def _worker_init(
    program: Program,
    limits: EvaluationLimits,
    execution: ExecutionMode,
    snapshot: "tuple[list[tuple], list[str], list[tuple]]",
    spec: "ShardingSpec | None" = None,
    shard: int = 0,
    partitioned: bool = False,
) -> None:
    # The snapshot is already in wire form — its defs seed the inbound
    # decoder, so every path the parent ships later that the snapshot
    # already named costs one int from the very first round.  It arrives
    # as packed id blocks plus the full relation-name list (a relation
    # with no rows must still exist worker-side).
    defs, names, blocks = snapshot
    inbound = WireDecoder()
    inbound.absorb(defs)
    instance = Instance()
    for name in names:
        instance.ensure_relation(name)
    for name, arity, count, ids in blocks:
        instance.ensure_relation(name)
        storage = instance.storage(name)
        for row in _decode_block_rows(inbound, arity, count, ids):
            storage.add(row)
    _WORKER["program"] = program
    _WORKER["instance"] = instance
    _WORKER["evaluators"] = ProgramEvaluators(limits, execution=execution)
    _WORKER["spec"] = spec
    _WORKER["shard"] = shard
    _WORKER["partitioned"] = partitioned
    #: Per-link codec state: the parent→worker decoder and the
    #: worker→parent encoder (each direction owns its id space).
    _WORKER["inbound"] = inbound
    _WORKER["outbound"] = WireEncoder()
    #: Foreign-homed facts already shipped to the parent (partitioned mode):
    #: a partitioned worker does not retain them, so without this set every
    #: re-derivation would cross the wire and be re-deduplicated there.
    _WORKER["exported"] = set()
    #: Resident goal-program evaluators (worker-resident serving): keyed by
    #: the magic program object, so repeated queries against the same goal
    #: shape reuse their compiled plans without parent round-trips.
    _WORKER["goal_cache"] = {}


#: Counter fields a worker reports back after a round — the same per-shard
#: work counters :meth:`EvaluationStatistics.absorb_counters` folds together
#: (one shared tuple, so a new counter cannot silently stop travelling).
_ROUND_COUNTERS = EvaluationStatistics.WORK_COUNTERS


def _merge_counters(statistics: EvaluationStatistics, counters: "dict[str, int]") -> None:
    """Fold a worker's reported counter dict into *statistics*."""
    for name, value in counters.items():
        setattr(statistics, name, getattr(statistics, name) + value)


def _apply_catchup(
    segments: "list[tuple]", *, count_new: bool = False
) -> "tuple[list[Fact], int]":
    """Apply packed catch-up segments to the worker's instance.

    Returns ``(new_facts, counted)``: the facts actually new to this worker
    (only collected under *count_new* — router mode feeds them into its
    frontier) and how many of them were marked countable by the parent.
    """
    instance: Instance = _WORKER["instance"]
    exported: set = _WORKER["exported"]
    inbound: WireDecoder = _WORKER["inbound"]
    catch_new: "list[Fact]" = []
    counted = 0
    for added, name, countable, arity, count, ids in segments:
        if added:
            instance.ensure_relation(name)
            storage = instance.storage(name)
            for row in _decode_block_rows(inbound, arity, count, ids):
                if storage.add(row) and count_new:
                    catch_new.append(Fact(name, row))
                    if countable:
                        counted += 1
        else:
            storage = instance.storage(name)
            for row in _decode_block_rows(inbound, arity, count, ids):
                if storage is not None:
                    storage.discard(row)
                if exported:
                    # A removed fact must become exportable again: if this
                    # worker re-derives it later, the parent needs to hear.
                    exported.discard(Fact(name, row))
    return catch_new, counted


def _decode_frontier(frontier: "list[tuple]") -> "tuple[Instance, set[str]]":
    """A frontier's packed blocks as a delta instance plus its relation names."""
    inbound: WireDecoder = _WORKER["inbound"]
    delta = Instance()
    names: "set[str]" = set()
    for name, arity, count, ids in frontier:
        delta.ensure_relation(name)
        storage = delta.storage(name)
        for row in _decode_block_rows(inbound, arity, count, ids):
            storage.add(row)
        names.add(name)
    return delta, names


def _worker_round(
    defs: "list[tuple]",
    catchup: "list[tuple]",
    stratum_index: int,
    frontier: "list[tuple]",
    local: bool,
) -> "tuple[list[tuple], list[tuple], dict[str, int]]":
    """One delta-restricted round in a worker: catch up, derive, self-apply."""
    instance: Instance = _WORKER["instance"]
    exported: set = _WORKER["exported"]
    inbound: WireDecoder = _WORKER["inbound"]
    inbound.absorb(defs)
    _apply_catchup(catchup)
    stratum = _WORKER["program"].strata[stratum_index]
    evaluators = _WORKER["evaluators"].for_stratum(stratum)
    statistics = EvaluationStatistics()
    delta, changed = _decode_frontier(frontier)
    new_facts = _apply_rules_seminaive(evaluators, instance, delta, changed, statistics)
    # Apply own derivations immediately: the parent will only send back what
    # the *other* shards derived (the cross-shard rows).  A partitioned
    # worker keeps its own partition only — foreign-homed derivations travel
    # to their home shard, and the ``exported`` set stops re-derivations of
    # the same foreign fact from crossing the wire again.  In *local* mode
    # foreign derivations are dropped outright: the frontier was broadcast
    # where it had to be, so the home worker derives its own copy.
    if _WORKER["partitioned"]:
        spec: ShardingSpec = _WORKER["spec"]
        home = _WORKER["shard"]
        shipped = []
        for fact in new_facts:
            if spec.shard_of_fact(fact) == home:
                instance.add_fact(fact)
                shipped.append(fact)
            elif not local and fact not in exported:
                exported.add(fact)
                shipped.append(fact)
        new_facts = shipped
    else:
        for fact in new_facts:
            instance.add_fact(fact)
    outbound: WireEncoder = _WORKER["outbound"]
    blocks = _encode_fact_blocks(outbound, new_facts)
    return (
        outbound.take_defs(),
        blocks,
        {name: getattr(statistics, name) for name in _ROUND_COUNTERS},
    )


def _worker_run_stratum(
    defs: "list[tuple]",
    catchup: "list[tuple]",
    stratum_index: int,
    frontier: "list[tuple]",
) -> "tuple[list[tuple], list[tuple], dict[str, int], int]":
    """A whole worker-resident delta cascade: micro-rounds without barriers.

    Only dispatched for ``local``-mode strata: every rule there reads rows
    co-located with its head (or replicated), so the worker can chase its
    frontier to a local fixpoint, keep its home derivations, and drop
    foreign ones — the home worker derives its own copy from the same
    broadcast delta.  Returns the net-new home facts, the work counters,
    and the number of micro-rounds run.
    """
    instance: Instance = _WORKER["instance"]
    inbound: WireDecoder = _WORKER["inbound"]
    inbound.absorb(defs)
    _apply_catchup(catchup)
    stratum = _WORKER["program"].strata[stratum_index]
    evaluators = _WORKER["evaluators"].for_stratum(stratum)
    limits: EvaluationLimits = _WORKER["evaluators"].limits
    spec: ShardingSpec = _WORKER["spec"]
    home = _WORKER["shard"]
    statistics = EvaluationStatistics()
    delta, _ = _decode_frontier(frontier)
    frontier_facts = {
        Fact(name, row)
        for name in delta.relation_names
        for row in delta.relation(name)
    }
    net: "set[Fact]" = set()
    scratch = Instance()
    rounds = 0
    while frontier_facts:
        rounds += 1
        limits.check_iterations(rounds)
        scratch.replace_with(frontier_facts)
        changed = {fact.relation for fact in frontier_facts}
        derived = _apply_rules_seminaive(evaluators, instance, scratch, changed, statistics)
        frontier_facts = set()
        for fact in derived:
            if spec.shard_of_fact(fact) == home:
                instance.add_fact(fact)
                net.add(fact)
                frontier_facts.add(fact)
        limits.check_fact_count(instance.fact_count())
    outbound: WireEncoder = _WORKER["outbound"]
    blocks = _encode_fact_blocks(outbound, net)
    return (
        outbound.take_defs(),
        blocks,
        {name: getattr(statistics, name) for name in _ROUND_COUNTERS},
        rounds,
    )


# -- router-mode worker ops (partitioned builds) ---------------------------------------
#
# During a full build of a key-aligned program the parent does not need the
# derived facts round by round — only the fixpoint at the end.  In router
# mode each worker seeds its own frontier from its partition, keeps its own
# home derivations as the next round's frontier, and ships foreign-homed
# rows to the parent, which forwards them (still encoded, never decoded) to
# their home worker's queue.  The parent's per-round cost collapses to
# routing; the partitions are fetched once at the end of the stratum.


def _worker_router_start(names: "list[str]") -> int:
    """Seed the round-zero frontier: this worker's partition of *names*.

    Replicated relations are present in full on every worker, but their
    rows seed the frontier at their *owning* shard only — otherwise every
    worker would redo the same round-one pivots N times (the copies exist
    for join completeness, not as work).
    """
    instance: Instance = _WORKER["instance"]
    spec: "ShardingSpec | None" = _WORKER["spec"]
    shard = _WORKER["shard"]
    replicated = spec.replicated if spec is not None else frozenset()
    frontier: set[Fact] = set()
    for name in names:
        if name in replicated:
            for row in instance.relation(name):
                if spec.shard_of_row(name, row) == shard:
                    frontier.add(Fact(name, row))
        else:
            for row in instance.relation(name):
                frontier.add(Fact(name, row))
    _WORKER["frontier"] = frontier
    return len(frontier)


def _worker_router_round(
    defs: "list[tuple]",
    catchup: "list[tuple]",
    stratum_index: int,
) -> "tuple[list[tuple], list[tuple], int, int, dict[str, int]]":
    """One router-mode round: returns (defs, ships, counted_new, frontier_left, counters)."""
    instance: Instance = _WORKER["instance"]
    spec: ShardingSpec = _WORKER["spec"]
    home = _WORKER["shard"]
    exported: set = _WORKER["exported"]
    inbound: WireDecoder = _WORKER["inbound"]
    inbound.absorb(defs)
    # Router-forwarded rows are counted where they land (the deriving
    # worker did not keep them); parent-queued rows were already counted
    # when the parent applied them.
    catch_new, counted_catch = _apply_catchup(catchup, count_new=True)
    frontier: set[Fact] = _WORKER.get("frontier") or set()
    frontier |= set(catch_new)
    if not frontier:
        _WORKER["frontier"] = set()
        return [], [], counted_catch, 0, {}
    stratum = _WORKER["program"].strata[stratum_index]
    evaluators = _WORKER["evaluators"].for_stratum(stratum)
    statistics = EvaluationStatistics()
    delta = Instance()
    delta.replace_with(frontier)
    new_facts = _apply_rules_seminaive(
        evaluators, instance, delta, {fact.relation for fact in frontier}, statistics
    )
    home_new: "set[Fact]" = set()
    outbound: WireEncoder = _WORKER["outbound"]
    ships = _BlockPacker()
    for fact in new_facts:
        fact_home = spec.shard_of_fact(fact)
        if fact_home == home:
            instance.add_fact(fact)
            home_new.add(fact)
        elif fact not in exported:
            exported.add(fact)
            ships.add((fact_home, fact.relation), outbound.encode_row(fact.paths))
    _WORKER["frontier"] = home_new
    return (
        outbound.take_defs(),
        ships.blocks(),
        len(home_new) + counted_catch,
        len(home_new),
        {name: getattr(statistics, name) for name in _ROUND_COUNTERS},
    )


def _worker_router_dump(
    names: "list[str]",
) -> "tuple[list[tuple], list[tuple]]":
    """This worker's partition of *names*, for the end-of-stratum collect."""
    instance: Instance = _WORKER["instance"]
    outbound: WireEncoder = _WORKER["outbound"]
    packer = _BlockPacker()
    for name in names:
        for row in instance.relation(name):
            packer.add(name, outbound.encode_row(row))
    return outbound.take_defs(), packer.blocks()


def _worker_dred(
    defs: "list[tuple]",
    catchup: "list[tuple]",
    stratum_index: int,
    added_blocks: "list[tuple]",
    removed_blocks: "list[tuple]",
    seed_blocks: "list[tuple]",
    pinned_blocks: "list[tuple]",
) -> "tuple[list[tuple], list[tuple], list[tuple], dict[str, int], int]":
    """Worker-local DRed: overdelete from the removed seeds, then rederive.

    Sound only for ``local``-mode strata: the overdeletion cascade of a
    home fact pivots home and replicated rows exclusively (replicated
    relations are never derived, so the cascade cannot pass through them),
    and every rederivation support set for a home fact is likewise
    worker-visible.  The pre-update overlay of each changed relation is
    rebuilt here as ``(current − added) ∪ removed`` over the worker's view.
    Returns the overdeleted and rederived facts (already applied locally)
    plus the overdeletion round count.
    """
    instance: Instance = _WORKER["instance"]
    inbound: WireDecoder = _WORKER["inbound"]
    inbound.absorb(defs)
    _apply_catchup(catchup)
    stratum = _WORKER["program"].strata[stratum_index]
    evaluators = _WORKER["evaluators"].for_stratum(stratum)
    limits: EvaluationLimits = _WORKER["evaluators"].limits
    statistics = EvaluationStatistics()

    added_rows: "dict[str, set]" = {}
    for name, arity, count, ids in added_blocks:
        added_rows.setdefault(name, set()).update(
            _decode_block_rows(inbound, arity, count, ids)
        )
    removed_rows: "dict[str, set]" = {}
    for name, arity, count, ids in removed_blocks:
        removed_rows.setdefault(name, set()).update(
            _decode_block_rows(inbound, arity, count, ids)
        )
    changed_names = set(added_rows) | set(removed_rows)
    old_overlay = Instance()
    for name in changed_names:
        rows = (
            set(instance.relation(name)) if name in instance.relation_names else set()
        )
        rows -= added_rows.get(name, set())
        rows |= removed_rows.get(name, set())
        old_overlay.set_relation_rows(name, rows)

    head_names = stratum.head_relation_names()
    pinned = _decode_fact_blocks(inbound, pinned_blocks)
    frontier_facts = _decode_fact_blocks(inbound, seed_blocks)
    overdeleted: "set[Fact]" = set()
    frontier_instance = Instance()
    rounds = 0
    while frontier_facts:
        rounds += 1
        limits.check_iterations(rounds)
        frontier_instance.replace_with(frontier_facts)
        frontier_names = {fact.relation for fact in frontier_facts}
        new_deleted: "set[Fact]" = set()
        for evaluator in evaluators:
            if not (evaluator.body_relation_names & frontier_names):
                continue
            statistics.rule_applications += 1
            positions = evaluator.positions_in_order
            for pivot, name in positions:
                if name not in frontier_names:
                    continue
                overrides = {
                    position: old_overlay
                    for position, other in positions
                    if position != pivot and other in changed_names
                }
                statistics.delta_restricted_applications += 1
                frontier = {pivot: frontier_instance, **overrides}
                for fact in evaluator.derive(
                    instance, frontier=frontier, statistics=statistics
                ):
                    if (
                        fact.relation in head_names
                        and fact not in overdeleted
                        and fact not in pinned
                        and fact in instance
                    ):
                        new_deleted.add(fact)
        overdeleted |= new_deleted
        frontier_facts = new_deleted
    for fact in overdeleted:
        instance.discard_fact(fact, keep_empty=True)

    rederived = rederivable(evaluators, instance, overdeleted, statistics)
    for fact in rederived:
        instance.add_fact(fact)

    outbound: WireEncoder = _WORKER["outbound"]
    over_blocks = _encode_fact_blocks(outbound, overdeleted)
    reder_blocks = _encode_fact_blocks(outbound, rederived)
    return (
        outbound.take_defs(),
        over_blocks,
        reder_blocks,
        {name: getattr(statistics, name) for name in _ROUND_COUNTERS},
        rounds,
    )


def _worker_counting(
    defs: "list[tuple]",
    catchup: "list[tuple]",
    stratum_index: int,
    added_blocks: "list[tuple]",
    removed_blocks: "list[tuple]",
    pivot_added_blocks: "list[tuple]",
    pivot_removed_blocks: "list[tuple]",
) -> "tuple[list[tuple], list[tuple], list[tuple], dict[str, int]]":
    """Worker-local signed counting: the telescoped delta joins of one
    non-recursive stratum, enumerated against the resident partition.

    Sound for ``local``- and ``aligned``-mode strata none of whose changed
    relations are replicated: both proofs key every non-replicated read
    (positive or negated) of a multi-predicate rule by the rule's anchor
    variable, so a valuation pivoting on a row homed here reads home or
    replicated rows exclusively — each derivation is enumerated at exactly
    the one shard its pivot row homes to, and the per-shard signed counts
    merge exactly.  (Aligned mode's foreign-homed *heads* don't matter:
    the counts travel back to the parent, which owns the net add/remove
    decisions.)  The pre-update overlay of each changed relation is
    rebuilt as ``(current − added) ∪ removed`` over the worker's view —
    sound for the same reason: the old rows a home valuation can touch
    are home rows.  Returns the signed count deltas for this shard's
    slice of the derivations.
    """
    instance: Instance = _WORKER["instance"]
    inbound: WireDecoder = _WORKER["inbound"]
    inbound.absorb(defs)
    _apply_catchup(catchup)
    stratum = _WORKER["program"].strata[stratum_index]
    evaluators = _WORKER["evaluators"].for_stratum(stratum)
    limits: EvaluationLimits = _WORKER["evaluators"].limits
    statistics = EvaluationStatistics()

    added_rows: "dict[str, set]" = {}
    for name, arity, count, ids in added_blocks:
        added_rows.setdefault(name, set()).update(
            _decode_block_rows(inbound, arity, count, ids)
        )
    removed_rows: "dict[str, set]" = {}
    for name, arity, count, ids in removed_blocks:
        removed_rows.setdefault(name, set()).update(
            _decode_block_rows(inbound, arity, count, ids)
        )
    changed_names = set(added_rows) | set(removed_rows)
    old_overlay = Instance()
    for name in changed_names:
        rows = (
            set(instance.relation(name)) if name in instance.relation_names else set()
        )
        rows -= added_rows.get(name, set())
        rows |= removed_rows.get(name, set())
        old_overlay.set_relation_rows(name, rows)

    # This shard's home slice of the delta, one single-relation frontier
    # instance per (polarity, relation) — the pivot is the only position
    # that ever reads it.
    pivots: "dict[tuple[str, str], Instance]" = {}
    for polarity, blocks in (
        ("added", pivot_added_blocks),
        ("removed", pivot_removed_blocks),
    ):
        for name, arity, count, ids in blocks:
            part = pivots.get((polarity, name))
            if part is None:
                part = pivots[(polarity, name)] = Instance()
                part.ensure_relation(name)
            storage = part.storage(name)
            for row in _decode_block_rows(inbound, arity, count, ids):
                storage.add(row)

    delta_counts: "dict[Fact, int]" = {}
    for evaluator in evaluators:
        read_names = evaluator.body_relation_names | evaluator.negated_relation_names
        if not (read_names & changed_names):
            continue
        statistics.rule_applications += 1
        positions = evaluator.positions_in_order
        negated_positions = tuple(
            (position, literal)
            for position, literal in enumerate(evaluator.order)
            if literal.negative and literal.is_predicate()
        )
        negative_old = {
            position: old_overlay
            for position, literal in negated_positions
            if literal.atom.name in changed_names
        }
        for pivot_index, (pivot, name) in enumerate(positions):
            if name not in changed_names:
                continue
            overrides = {
                position: old_overlay
                for position, later_name in positions[pivot_index + 1 :]
                if later_name in changed_names
            }
            for polarity, sign in (("added", 1), ("removed", -1)):
                part = pivots.get((polarity, name))
                if part is None:
                    continue
                statistics.delta_restricted_applications += 1
                frontier = {pivot: part, **overrides}
                seen: set = set()
                for fact, valuation in evaluator.derivations(
                    instance,
                    frontier=frontier,
                    statistics=statistics,
                    negative_sources=negative_old or None,
                ):
                    if valuation in seen:
                        continue
                    seen.add(valuation)
                    delta_counts[fact] = delta_counts.get(fact, 0) + sign
        for pivot, literal in negated_positions:
            name = literal.atom.name
            if name not in changed_names:
                continue
            flipped = list(evaluator.order)
            flipped[pivot] = literal.negated()
            later_old = {
                position: old_overlay
                for position, other in negated_positions
                if position > pivot and other.atom.name in changed_names
            }
            for polarity, sign in (("added", -1), ("removed", 1)):
                part = pivots.get((polarity, name))
                if part is None:
                    continue
                statistics.delta_restricted_applications += 1
                seen = set()
                for valuation in evaluator.valuations(
                    instance,
                    {pivot: part},
                    statistics,
                    order=flipped,
                    negative_sources=later_old or None,
                ):
                    if valuation in seen:
                        continue
                    seen.add(valuation)
                    fact = valuation.apply_to_predicate(evaluator.rule.head)
                    for fact_path in fact.paths:
                        limits.check_path_length(len(fact_path))
                    delta_counts[fact] = delta_counts.get(fact, 0) + sign

    outbound: WireEncoder = _WORKER["outbound"]
    counted_blocks, block_signs = _encode_counted_blocks(outbound, delta_counts)
    return (
        outbound.take_defs(),
        counted_blocks,
        block_signs,
        {name: getattr(statistics, name) for name in _ROUND_COUNTERS},
    )


def _worker_repartition(
    defs: "list[tuple]",
    catchup: "list[tuple]",
    keys: "dict[str, int]",
    blocks: "list[tuple]",
) -> int:
    """Adopt new shard keys and wholesale-replace the rekeyed partitions.

    The parent drained this link's catch-up queue into *catchup* first, so
    the replacement lands on an up-to-date view; *blocks* carry this
    worker's entire new partition of every rekeyed relation.  Exported-fact
    memory for those relations is dropped — ownership just changed under
    it, and the parent's router dedup set is reset per stratum anyway.
    """
    instance: Instance = _WORKER["instance"]
    inbound: WireDecoder = _WORKER["inbound"]
    inbound.absorb(defs)
    _apply_catchup(catchup)
    spec: ShardingSpec = _WORKER["spec"]
    spec.keys.update(keys)
    rows_by_name: "dict[str, set]" = {name: set() for name in keys}
    for name, arity, count, ids in blocks:
        rows_by_name[name].update(_decode_block_rows(inbound, arity, count, ids))
    for name, rows in rows_by_name.items():
        instance.set_relation_rows(name, rows)
    exported: set = _WORKER["exported"]
    if exported:
        _WORKER["exported"] = {
            fact for fact in exported if fact.relation not in keys
        }
    return sum(len(rows) for rows in rows_by_name.values())


def _worker_run_goal(
    defs: "list[tuple]",
    catchup: "list[tuple]",
    program: Program,
    seed_blocks: "list[tuple]",
) -> "tuple[list[tuple], list[tuple], dict[str, int]]":
    """Evaluate a goal's magic program against this worker's resident state.

    Only dispatched when the goal's shard footprint is exactly this shard:
    every row any rule of *program* can touch is then provably homed here
    (or replicated here in full).  The evaluators compiled for *program*
    stay cached in the worker across queries, so repeated goals of the
    same shape reuse their join plans without any parent round-trip.
    """
    instance: Instance = _WORKER["instance"]
    inbound: WireDecoder = _WORKER["inbound"]
    inbound.absorb(defs)
    _apply_catchup(catchup)
    base: ProgramEvaluators = _WORKER["evaluators"]
    cache: dict = _WORKER["goal_cache"]
    evaluators = cache.get(program)
    if evaluators is None:
        evaluators = cache[program] = ProgramEvaluators(
            base.limits, execution=base.execution
        )
    seed_facts = _decode_fact_blocks(inbound, seed_blocks)
    # The magic program reads the served relations as its EDB; restricting
    # the input to exactly those names keeps the goal's adorned/magic
    # relations from colliding with anything resident.
    source = Instance()
    for name in program.edb_relation_names():
        if name in instance.relation_names:
            source.set_relation_rows(name, set(instance.relation(name)))
    statistics = EvaluationStatistics()
    result = evaluate_program(
        program,
        source,
        base.limits,
        execution=base.execution,
        statistics=statistics,
        seed_facts=seed_facts,
        evaluators=evaluators,
    )
    outbound: WireEncoder = _WORKER["outbound"]
    packer = _BlockPacker()
    for name in result.relation_names:
        for row in result.relation(name):
            packer.add(name, outbound.encode_row(row))
    return (
        outbound.take_defs(),
        packer.blocks(),
        {name: getattr(statistics, name) for name in _ROUND_COUNTERS},
    )


class ProcessExecutor(ParallelExecutor):
    """One single-worker process pool per shard, with persistent replicas.

    Shard *i*'s tasks always land on process *i* (a shared pool would not
    guarantee that), so each process can keep its replica of the instance
    across rounds: :meth:`attach` ships a pickled snapshot once, and every
    later round carries only the shard's frontier plus the queued cross-shard
    rows it has not seen yet.  Rounds whose total frontier is smaller than
    :attr:`min_round_rows` return ``None`` — the parent runs them in-process
    (still shard-partitioned), because pickling would dwarf the work; the
    queued catch-up is simply delivered with the next dispatched round.

    All row traffic runs through the per-link interned codec
    (:class:`WireEncoder`/:class:`WireDecoder`): each direction of each
    link ships a path's definition once and ints thereafter.  With
    ``measure_payloads=True`` every shipped batch is additionally pickled
    in both forms and the byte totals accumulate in
    :attr:`payload_bytes_interned` / :attr:`payload_bytes_nested` — the
    numbers ``benchmarks/bench_sharding.py`` reports.  (Measurement
    doubles the parent-side pickling work, so it is off by default.)
    """

    kind = "process"

    def __init__(
        self,
        shard_count: int,
        *,
        min_round_rows: int = 64,
        max_backlog_rows: int = 8192,
        measure_payloads: bool = False,
    ):
        super().__init__(shard_count)
        #: Rounds whose total frontier is below this run on the parent
        #: in-process (pickling would dwarf the work); tunable so the
        #: benchmarks can force every round through the workers.
        self.min_round_rows = min_round_rows
        #: ... unless a worker's catch-up queue has grown past this many
        #: rows, in which case the round dispatches anyway to drain it.
        self.max_backlog_rows = max_backlog_rows
        #: How many rounds the fallback heuristic kept on the parent — the
        #: observability knob for tuning the two thresholds above.
        self.parent_fallback_rounds = 0
        self.measure_payloads = measure_payloads
        #: Accumulated pickled bytes of every shipped batch, in the interned
        #: wire form actually sent and in the self-describing nested form the
        #: codec replaced (both only tracked under ``measure_payloads``).
        self.payload_bytes_interned = 0
        self.payload_bytes_nested = 0
        self._pools: "list | None" = None
        self._spec: "ShardingSpec | None" = None
        self._partitioned = False
        self._modes: "tuple[str, ...]" = ()
        #: Deterministic exchange stats (always on): dispatched flushes and
        #: the packed id bytes (array itemsize × slots) shipped either way.
        self._batches = 0
        self._bytes = 0
        #: Per home shard, the outbound-encoded rows already forwarded this
        #: stratum (router mode): ids are canonical per link, so the same
        #: foreign fact derived by two workers deduplicates here.
        self._routed: "list[set[tuple[str, tuple]]]" = []
        #: Per-worker ordered catch-up ops ``(added?, name, row, countable?)``
        #: not yet shipped; ``countable`` marks router-forwarded rows the
        #: receiving home worker must count as newly derived (parent-queued
        #: rows were already counted when the parent applied them).  Ops are
        #: packed into merged segments at dispatch time.
        self._pending: "list[list[tuple[bool, str, tuple, bool]]]" = []
        #: Per-link codec state: parent→worker encoders (their ``_by_path``
        #: maps double as the re-ship cache) and worker→parent decoders.
        self._to_worker: "list[WireEncoder]" = []
        self._from_worker: "list[WireDecoder]" = []

    def _account(self, interned, nested) -> None:
        """Accumulate both wire forms' pickled sizes (measurement mode only).

        The nested baseline is pickled with memoization off (``Pickler.fast``)
        so every row pays its full self-describing cost, as the per-row tuple
        codec it models actually would — whole-batch memoization would let the
        baseline intern repeated paths for free and understate the comparison.
        """
        import io
        import pickle

        self.payload_bytes_interned += len(pickle.dumps(interned, pickle.HIGHEST_PROTOCOL))
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
        pickler.fast = True
        pickler.dump(nested)
        self.payload_bytes_nested += buffer.tell()

    def _count_dispatch(self, *block_lists) -> None:
        """Account one parent→worker flush: a batch plus its id payload."""
        self._batches += 1
        for blocks in block_lists:
            for block in blocks:
                ids = block[-1]
                self._bytes += ids.itemsize * len(ids)

    def _count_receipt(self, *block_lists) -> None:
        """Account a worker→parent payload (bytes only; not a dispatch)."""
        for blocks in block_lists:
            for block in blocks:
                ids = block[-1]
                self._bytes += ids.itemsize * len(ids)

    def _local_mode(self, stratum_index: int) -> bool:
        return (
            stratum_index < len(self._modes) and self._modes[stratum_index] == "local"
        )

    def _reads_are_colocated(self, stratum_index: int) -> bool:
        """Whether every valuation of the stratum reads one shard's rows.

        True for ``local`` *and* ``aligned`` strata — the alignment proof
        is exactly about the reads; the two modes differ only in where the
        derived head homes.  Enough for worker-resident counting, whose
        derivations travel back to the parent as signed counts anyway.
        """
        return stratum_index < len(self._modes) and self._modes[stratum_index] in (
            "local",
            "aligned",
        )

    def _drain_pending(self, shard: int, *, count: bool = True) -> "list[tuple]":
        """Take shard's queued catch-up as packed segments.

        *count* folds the drained rows into :meth:`take_exchanged`; router
        mode passes ``False`` because it reports its exchange through the
        shipped-row count instead (counting both would double-report).
        """
        ops = self._pending[shard]
        self._pending[shard] = []
        if count:
            self._exchanged += len(ops)
        return _pack_catchup(ops)

    def take_exchange_stats(self) -> "tuple[int, int]":
        stats = (self._batches, self._bytes)
        self._batches = 0
        self._bytes = 0
        return stats

    def attach(
        self,
        program: Program,
        limits: EvaluationLimits,
        execution: ExecutionMode,
        instance: Instance,
        *,
        spec: "ShardingSpec | None" = None,
        partitioned: bool = False,
        partitions: "list[Instance] | None" = None,
        modes: "tuple[str, ...]" = (),
    ) -> None:
        from concurrent.futures import ProcessPoolExecutor

        if partitioned and spec is None:
            raise EvaluationError("partitioned workers need the sharding spec")
        # Worker residency: re-attaching with the same shard count reuses
        # the live pools (a re-init task replaces each worker's state) —
        # respawning processes per evaluation would dwarf serving-sized
        # work.  The pools are created bare and initialized by an explicit
        # first task, so a respawned worker fails loudly instead of
        # resurrecting stale initializer state.
        reuse = self._pools is not None and len(self._pools) == self.shard_count
        if not reuse:
            self.close()
        self._spec = spec
        self._partitioned = partitioned
        self._modes = tuple(modes)
        replicated = spec.replicated if spec is not None else frozenset()
        names = sorted(instance.relation_names)
        per_worker: "list[tuple[list[tuple], list[str], list[tuple]]]"
        if partitioned and partitions is not None:
            # The owner already routed every row (its mirror): encode the
            # per-shard splits directly instead of hashing everything again.
            # Replicated relations are the exception — every worker gets the
            # authoritative full copy, not the mirror's ownership split.
            self._to_worker = [WireEncoder() for _ in range(self.shard_count)]
            per_worker = []
            for shard, shard_instance in enumerate(partitions):
                encoder = self._to_worker[shard]
                packer = _BlockPacker()
                for name in shard_instance.relation_names:
                    if name in replicated:
                        continue
                    for row in shard_instance.relation(name):
                        packer.add(name, encoder.encode_row(row))
                for name in replicated:
                    if name not in instance.relation_names:
                        continue
                    for row in instance.relation(name):
                        packer.add(name, encoder.encode_row(row))
                per_worker.append((encoder.take_defs(), names, packer.blocks()))
        elif partitioned:
            assert spec is not None
            self._to_worker = [WireEncoder() for _ in range(self.shard_count)]
            packers = [_BlockPacker() for _ in range(self.shard_count)]
            for name in instance.relation_names:
                if name in replicated:
                    for shard in range(self.shard_count):
                        encoder = self._to_worker[shard]
                        for row in instance.relation(name):
                            packers[shard].add(name, encoder.encode_row(row))
                    continue
                for shard, rows in enumerate(
                    spec.partition_rows(name, instance.relation(name))
                ):
                    encoder = self._to_worker[shard]
                    for row in rows:
                        packers[shard].add(name, encoder.encode_row(row))
            per_worker = [
                (self._to_worker[shard].take_defs(), names, packers[shard].blocks())
                for shard in range(self.shard_count)
            ]
        else:
            # Replicated: encode the snapshot once, seed every link's encoder
            # with the same interned state (the shared snapshot defines the
            # same ids on every link).
            prototype = WireEncoder()
            packer = _BlockPacker()
            for name in instance.relation_names:
                for row in instance.relation(name):
                    packer.add(name, prototype.encode_row(row))
            snapshot = (prototype.take_defs(), names, packer.blocks())
            self._to_worker = [prototype.clone() for _ in range(self.shard_count)]
            per_worker = [snapshot] * self.shard_count
        self._from_worker = [WireDecoder() for _ in range(self.shard_count)]
        for shard in range(self.shard_count):
            defs, _names, blocks = per_worker[shard]
            self._count_dispatch([*blocks])
            if self.measure_payloads:
                # The nested baseline is self-describing per-row tuples: no
                # definition prefix, every row pays its full nested form.
                encoder = self._to_worker[shard]
                self._account(
                    (defs, names, blocks), (names, _nested_blocks(encoder, blocks))
                )
        if not reuse:
            self._pools = [
                ProcessPoolExecutor(max_workers=1) for _ in range(self.shard_count)
            ]
        assert self._pools is not None
        futures = [
            pool.submit(
                _worker_init,
                program,
                limits,
                execution,
                per_worker[shard],
                spec,
                shard,
                partitioned,
            )
            for shard, pool in enumerate(self._pools)
        ]
        for future in futures:
            future.result()
        self._pending = [[] for _ in range(self.shard_count)]

    def sync(
        self,
        added: "Collection[Fact]",
        removed: "Collection[Fact]" = (),
        *,
        derived_by: "list[set[Fact]] | None" = None,
    ) -> None:
        if self._pools is None:
            return
        encoders = self._to_worker
        if self._partitioned:
            # Each *added* row travels to its home shard only — this is the
            # cross-shard exchange in its literal sense.  Removals broadcast:
            # besides the home partition they must clear every worker's
            # exported-fact memory, or a later re-derivation of the removed
            # fact would be silently suppressed.  Replicated-relation adds
            # broadcast too: every worker holds the full copy, and a
            # local-mode delta pivot is only complete if every worker sees
            # the new row.
            assert self._spec is not None
            replicated = self._spec.replicated
            for fact in removed:
                for shard, queue in enumerate(self._pending):
                    queue.append(
                        (False, fact.relation, encoders[shard].encode_row(fact.paths), False)
                    )
            for fact in added:
                if fact.relation in replicated:
                    for shard, queue in enumerate(self._pending):
                        queue.append(
                            (True, fact.relation, encoders[shard].encode_row(fact.paths), False)
                        )
                    continue
                home = self._spec.shard_of_fact(fact)
                if derived_by is not None and fact in derived_by[home]:
                    continue  # its home worker derived (and kept) it already
                self._pending[home].append(
                    (True, fact.relation, encoders[home].encode_row(fact.paths), False)
                )
            return
        for shard, queue in enumerate(self._pending):
            encoder = encoders[shard]
            skip = derived_by[shard] if derived_by is not None else ()
            for fact in removed:
                queue.append((False, fact.relation, encoder.encode_row(fact.paths), False))
            for fact in added:
                if fact not in skip:
                    queue.append((True, fact.relation, encoder.encode_row(fact.paths), False))

    def round(
        self,
        stratum_index: int,
        frontier_parts: "list[set[Fact]]",
        stats_parts: "list[EvaluationStatistics]",
    ) -> "list[set[Fact]] | None":
        if self._pools is None:
            raise EvaluationError("ProcessExecutor.round called before attach()")
        total = sum(len(part) for part in frontier_parts)
        backlog = max((len(queue) for queue in self._pending), default=0)
        if total < self.min_round_rows and backlog < self.max_backlog_rows:
            # Parent runs this round in-process; catch-up stays queued.
            self.parent_fallback_rounds += 1
            return None
        local = self._local_mode(stratum_index)
        futures = []
        for shard, pool in enumerate(self._pools):
            encoder = self._to_worker[shard]
            catchup = self._drain_pending(shard)
            frontier = _encode_fact_blocks(encoder, frontier_parts[shard])
            defs = encoder.take_defs()
            self._count_dispatch(catchup, frontier)
            if self.measure_payloads:
                self._account(
                    (defs, catchup, frontier),
                    (_nested_blocks(encoder, catchup), _nested_blocks(encoder, frontier)),
                )
            futures.append(
                pool.submit(_worker_round, defs, catchup, stratum_index, frontier, local)
            )
        results: "list[set[Fact]]" = []
        for shard, future in enumerate(futures):
            defs, blocks, counters = future.result()
            decoder = self._from_worker[shard]
            decoder.absorb(defs)
            _merge_counters(stats_parts[shard], counters)
            self._count_receipt(blocks)
            if self.measure_payloads:
                self._account((defs, blocks), _nested_blocks(decoder, blocks))
            results.append(_decode_fact_blocks(decoder, blocks))
        return results

    def run_stratum(
        self,
        stratum_index: int,
        frontier_parts: "list[set[Fact]]",
        stats_parts: "list[EvaluationStatistics]",
    ) -> "tuple[list[set[Fact]], int] | None":
        if (
            self._pools is None
            or not self._partitioned
            or not self._local_mode(stratum_index)
        ):
            return None
        total = sum(len(part) for part in frontier_parts)
        backlog = max((len(queue) for queue in self._pending), default=0)
        if total < self.min_round_rows and backlog < self.max_backlog_rows:
            self.parent_fallback_rounds += 1
            return None
        futures = {}
        for shard, pool in enumerate(self._pools):
            if not frontier_parts[shard] and not self._pending[shard]:
                continue
            encoder = self._to_worker[shard]
            catchup = self._drain_pending(shard)
            frontier = _encode_fact_blocks(encoder, frontier_parts[shard])
            defs = encoder.take_defs()
            self._count_dispatch(catchup, frontier)
            if self.measure_payloads:
                self._account(
                    (defs, catchup, frontier),
                    (_nested_blocks(encoder, catchup), _nested_blocks(encoder, frontier)),
                )
            futures[shard] = pool.submit(
                _worker_run_stratum, defs, catchup, stratum_index, frontier
            )
        results: "list[set[Fact]]" = [set() for _ in range(self.shard_count)]
        rounds = 0
        for shard, future in futures.items():
            defs, blocks, counters, worker_rounds = future.result()
            decoder = self._from_worker[shard]
            decoder.absorb(defs)
            _merge_counters(stats_parts[shard], counters)
            self._count_receipt(blocks)
            if self.measure_payloads:
                self._account((defs, blocks), _nested_blocks(decoder, blocks))
            results[shard] = _decode_fact_blocks(decoder, blocks)
            rounds = max(rounds, worker_rounds)
        return results, rounds

    def dred(
        self,
        stratum_index: int,
        changed: "dict[str, tuple[set, set]]",
        seed_parts: "list[set[Fact]]",
        pinned_parts: "list[set[Fact]]",
        stats_parts: "list[EvaluationStatistics]",
    ) -> "tuple[list[tuple[set[Fact], set[Fact]]], int] | None":
        if (
            self._pools is None
            or not self._partitioned
            or not self._local_mode(stratum_index)
        ):
            return None
        total = sum(len(part) for part in seed_parts)
        backlog = max((len(queue) for queue in self._pending), default=0)
        if total < self.min_round_rows and backlog < self.max_backlog_rows:
            self.parent_fallback_rounds += 1
            return None
        futures = {}
        for shard, pool in enumerate(self._pools):
            if not seed_parts[shard]:
                # No removed seeds homed here means no overdeletion can
                # start here; queued catch-up stays for the next dispatch.
                continue
            encoder = self._to_worker[shard]
            catchup = self._drain_pending(shard)
            added_packer = _BlockPacker()
            removed_packer = _BlockPacker()
            for name, (added_rows, removed_rows) in changed.items():
                for row in added_rows:
                    added_packer.add(name, encoder.encode_row(row))
                for row in removed_rows:
                    removed_packer.add(name, encoder.encode_row(row))
            added_blocks = added_packer.blocks()
            removed_blocks = removed_packer.blocks()
            seeds = _encode_fact_blocks(encoder, seed_parts[shard])
            pinned = _encode_fact_blocks(encoder, pinned_parts[shard])
            defs = encoder.take_defs()
            self._count_dispatch(catchup, added_blocks, removed_blocks, seeds, pinned)
            if self.measure_payloads:
                self._account(
                    (defs, catchup, added_blocks, removed_blocks, seeds, pinned),
                    (
                        _nested_blocks(encoder, catchup),
                        _nested_blocks(encoder, added_blocks),
                        _nested_blocks(encoder, removed_blocks),
                        _nested_blocks(encoder, seeds),
                        _nested_blocks(encoder, pinned),
                    ),
                )
            futures[shard] = pool.submit(
                _worker_dred,
                defs,
                catchup,
                stratum_index,
                added_blocks,
                removed_blocks,
                seeds,
                pinned,
            )
        results: "list[tuple[set[Fact], set[Fact]]]" = [
            (set(), set()) for _ in range(self.shard_count)
        ]
        rounds = 0
        for shard, future in futures.items():
            defs, over_blocks, reder_blocks, counters, worker_rounds = future.result()
            decoder = self._from_worker[shard]
            decoder.absorb(defs)
            _merge_counters(stats_parts[shard], counters)
            self._count_receipt(over_blocks, reder_blocks)
            if self.measure_payloads:
                self._account(
                    (defs, over_blocks, reder_blocks),
                    (
                        _nested_blocks(decoder, over_blocks),
                        _nested_blocks(decoder, reder_blocks),
                    ),
                )
            results[shard] = (
                _decode_fact_blocks(decoder, over_blocks),
                _decode_fact_blocks(decoder, reder_blocks),
            )
            rounds = max(rounds, worker_rounds)
        return results, rounds

    def counting(
        self,
        stratum_index: int,
        changed: "dict[str, tuple[set, set]]",
        pivot_parts: "list[dict[str, tuple[set, set]]]",
        stats_parts: "list[EvaluationStatistics]",
    ) -> "list[dict[Fact, int]] | None":
        if (
            self._pools is None
            or not self._partitioned
            or not self._reads_are_colocated(stratum_index)
        ):
            return None
        total = sum(
            len(added) + len(removed)
            for parts in pivot_parts
            for added, removed in parts.values()
        )
        backlog = max((len(queue) for queue in self._pending), default=0)
        if total < self.min_round_rows and backlog < self.max_backlog_rows:
            self.parent_fallback_rounds += 1
            return None
        futures = {}
        for shard, pool in enumerate(self._pools):
            parts = pivot_parts[shard]
            if not any(added or removed for added, removed in parts.values()):
                # No pivot rows homed here means no derivation is counted
                # here; queued catch-up stays for the next dispatch.
                continue
            encoder = self._to_worker[shard]
            catchup = self._drain_pending(shard)
            added_packer = _BlockPacker()
            removed_packer = _BlockPacker()
            for name, (added_rows, removed_rows) in changed.items():
                for row in added_rows:
                    added_packer.add(name, encoder.encode_row(row))
                for row in removed_rows:
                    removed_packer.add(name, encoder.encode_row(row))
            pivot_added_packer = _BlockPacker()
            pivot_removed_packer = _BlockPacker()
            for name, (added_rows, removed_rows) in parts.items():
                for row in added_rows:
                    pivot_added_packer.add(name, encoder.encode_row(row))
                for row in removed_rows:
                    pivot_removed_packer.add(name, encoder.encode_row(row))
            added_blocks = added_packer.blocks()
            removed_blocks = removed_packer.blocks()
            pivot_added = pivot_added_packer.blocks()
            pivot_removed = pivot_removed_packer.blocks()
            defs = encoder.take_defs()
            self._count_dispatch(
                catchup, added_blocks, removed_blocks, pivot_added, pivot_removed
            )
            if self.measure_payloads:
                self._account(
                    (defs, catchup, added_blocks, removed_blocks, pivot_added, pivot_removed),
                    (
                        _nested_blocks(encoder, catchup),
                        _nested_blocks(encoder, added_blocks),
                        _nested_blocks(encoder, removed_blocks),
                        _nested_blocks(encoder, pivot_added),
                        _nested_blocks(encoder, pivot_removed),
                    ),
                )
            futures[shard] = pool.submit(
                _worker_counting,
                defs,
                catchup,
                stratum_index,
                added_blocks,
                removed_blocks,
                pivot_added,
                pivot_removed,
            )
        results: "list[dict[Fact, int]]" = [{} for _ in range(self.shard_count)]
        for shard, future in futures.items():
            defs, counted_blocks, block_signs, counters = future.result()
            decoder = self._from_worker[shard]
            decoder.absorb(defs)
            _merge_counters(stats_parts[shard], counters)
            self._count_receipt(counted_blocks)
            if self.measure_payloads:
                self._account(
                    (defs, counted_blocks, block_signs),
                    (_nested_blocks(decoder, counted_blocks),),
                )
            results[shard] = _decode_counted_blocks(decoder, counted_blocks, block_signs)
        return results

    def repartition(self, keys: "dict[str, int]", rows_by_name: "dict[str, Collection]") -> None:
        if self._pools is None:
            return
        assert self._spec is not None
        # The caller already updated the spec's key table; split under the
        # *new* keys once, then ship each worker its whole new partition of
        # every rekeyed relation (with the catch-up queues drained first, so
        # the wholesale replacement lands on an up-to-date view).
        parts_by_name = {
            name: self._spec.partition_rows(name, rows)
            for name, rows in rows_by_name.items()
        }
        futures = []
        for shard, pool in enumerate(self._pools):
            encoder = self._to_worker[shard]
            catchup = self._drain_pending(shard)
            packer = _BlockPacker()
            moved = 0
            for name, parts in parts_by_name.items():
                for row in parts[shard]:
                    packer.add(name, encoder.encode_row(row))
                    moved += 1
            blocks = packer.blocks()
            defs = encoder.take_defs()
            self._exchanged += moved
            self._count_dispatch(catchup, blocks)
            if self.measure_payloads:
                self._account(
                    (defs, catchup, dict(keys), blocks),
                    (_nested_blocks(encoder, catchup), _nested_blocks(encoder, blocks)),
                )
            futures.append(
                pool.submit(_worker_repartition, defs, catchup, dict(keys), blocks)
            )
        for future in futures:
            future.result()

    def run_goal(
        self,
        shard: int,
        program: Program,
        seed_facts: "Collection[Fact]",
        stats: EvaluationStatistics,
    ) -> "dict[str, set]":
        """Evaluate a goal's magic *program* on the resident worker for *shard*.

        Drains only that worker's catch-up queue (the others stay lazy),
        ships the magic seeds, and returns the decoded result rows per
        relation.  The worker caches the program's evaluators, so repeated
        goals of the same shape skip plan compilation entirely.
        """
        if self._pools is None:
            raise EvaluationError("ProcessExecutor.run_goal called before attach()")
        pool = self._pools[shard]
        encoder = self._to_worker[shard]
        catchup = self._drain_pending(shard)
        seeds = _encode_fact_blocks(encoder, seed_facts)
        defs = encoder.take_defs()
        self._count_dispatch(catchup, seeds)
        if self.measure_payloads:
            self._account(
                (defs, catchup, seeds),
                (_nested_blocks(encoder, catchup), _nested_blocks(encoder, seeds)),
            )
        future = pool.submit(_worker_run_goal, defs, catchup, program, seeds)
        defs, blocks, counters = future.result()
        decoder = self._from_worker[shard]
        decoder.absorb(defs)
        _merge_counters(stats, counters)
        self._count_receipt(blocks)
        if self.measure_payloads:
            self._account((defs, blocks), _nested_blocks(decoder, blocks))
        rows: "dict[str, set]" = {}
        for name, arity, count, ids in blocks:
            rows.setdefault(name, set()).update(
                _decode_block_rows(decoder, arity, count, ids)
            )
        return rows

    # -- router mode (partitioned builds) ----------------------------------------------

    @property
    def supports_router(self) -> bool:
        """Whether whole-stratum router-mode fixpoints can run here."""
        return self._pools is not None and self._partitioned

    @property
    def supports_worker_goals(self) -> bool:
        """Partition-local goal queries run on resident workers when partitioned."""
        return self._pools is not None and self._partitioned

    def pending_rows(self, shard: int) -> int:
        """Rows queued for *shard* that have not been delivered yet."""
        return len(self._pending[shard]) if self._pools is not None else 0

    def router_start(self, names: "list[str]") -> "list[int]":
        """Seed every worker's frontier from its own partition of *names*."""
        assert self._pools is not None
        #: Rows already forwarded this stratum: several workers can derive
        #: the same foreign fact, but its home only needs it once.  Dedup
        #: runs per home link, on the *home link's* interned row — ids are
        #: canonical per link, so equal facts collide without the parent
        #: ever building a Path.
        self._routed = [set() for _ in range(self.shard_count)]
        futures = [pool.submit(_worker_router_start, names) for pool in self._pools]
        return [future.result() for future in futures]

    def router_round(
        self,
        active: "list[int]",
        stratum_index: int,
        stats_parts: "list[EvaluationStatistics]",
    ) -> "tuple[list[int], list[int], int]":
        """One router round over the *active* shards.

        Ships each worker its queued rows, forwards the returned foreign
        rows — re-interned definition-by-definition into the home link's id
        space, the parent never builds a fact — to their home queues, and
        returns ``(counted_new, frontier_left, shipped)`` where the two
        lists are indexed by shard (zero for inactive shards).
        """
        assert self._pools is not None
        futures = {}
        for shard in active:
            encoder = self._to_worker[shard]
            # No exchanged-row count here: router mode reports its exchange
            # via the returned `shipped` count — adding the catch-up
            # deliveries would double-count every routed row, and leaving
            # them queued in the counter would leak the whole build into the
            # next propagate()'s take_exchanged().
            catchup = self._drain_pending(shard, count=False)
            defs = encoder.take_defs()
            self._count_dispatch(catchup)
            if self.measure_payloads:
                self._account((defs, catchup), _nested_blocks(encoder, catchup))
            futures[shard] = self._pools[shard].submit(
                _worker_router_round, defs, catchup, stratum_index
            )
        counted = [0] * self.shard_count
        frontier_left = [0] * self.shard_count
        shipped = 0
        for shard, future in futures.items():
            defs, ships, counted_new, left, counters = future.result()
            decoder = self._from_worker[shard]
            decoder.absorb(defs)
            _merge_counters(stats_parts[shard], counters)
            self._count_receipt(ships)
            if self.measure_payloads:
                self._account((defs, ships), _nested_blocks(decoder, ships))
            counted[shard] = counted_new
            frontier_left[shard] = left
            for home, name, arity, count, ids in ships:
                home_encoder = self._to_worker[home]
                routed = self._routed[home]
                for row in _iter_id_rows(arity, count, ids):
                    out_row = tuple(
                        home_encoder.def_id(decoder.definition(ident)) for ident in row
                    )
                    key = (name, out_row)
                    if key in routed:
                        continue
                    routed.add(key)
                    self._pending[home].append((True, name, out_row, True))
                    shipped += 1
        return counted, frontier_left, shipped

    def router_dump(self, names: "list[str]") -> "list[dict[str, list[tuple[Path, ...]]]]":
        """Fetch every worker's partition of *names*, decoded, at end of stratum."""
        assert self._pools is not None
        futures = [pool.submit(_worker_router_dump, names) for pool in self._pools]
        dumps: "list[dict[str, list[tuple[Path, ...]]]]" = []
        for shard, future in enumerate(futures):
            defs, blocks = future.result()
            decoder = self._from_worker[shard]
            decoder.absorb(defs)
            self._count_receipt(blocks)
            if self.measure_payloads:
                self._account((defs, blocks), _nested_blocks(decoder, blocks))
            dump: "dict[str, list[tuple[Path, ...]]]" = {}
            for name, arity, count, ids in blocks:
                dump.setdefault(name, []).extend(
                    _decode_block_rows(decoder, arity, count, ids)
                )
            dumps.append(dump)
        return dumps

    def close(self) -> None:
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=True, cancel_futures=True)
            self._pools = None
            self._pending = []
            self._to_worker = []
            self._from_worker = []
            self._routed = []
            self._modes = ()


# -- the sharded fixpoint --------------------------------------------------------------


class ShardedFixpoint:
    """Shard-parallel semi-naive evaluation of one program.

    The fixpoint owns the sharding of a single evaluation lineage: a
    :class:`ShardingSpec` (where rows live), a :class:`ParallelExecutor`
    (how rounds run), the shared :class:`ProgramEvaluators` (compiled join
    plans, reused across rounds and — through the query session — across
    queries and updates), and the :class:`ShardedInstance` mirror of the
    authoritative instance.

    It is both a standalone evaluator (:meth:`evaluate` replaces
    :func:`~repro.engine.fixpoint.evaluate_program` for the sharded case)
    and the round engine :class:`~repro.engine.maintenance.MaintainedFixpoint`
    delegates to in its sharded mode (:meth:`stratum_fixpoint` for builds,
    :meth:`propagate` for insertion cascades, :meth:`absorb` to keep the
    mirror and the worker replicas in step with parent-side phases).

    The rounds are semi-naive by construction; the ``strategy`` knob of the
    single-process engine does not apply (a naive sharded round would make
    every worker redo the whole instance, which defeats the partitioning).
    """

    def __init__(
        self,
        program: Program,
        spec: ShardingSpec,
        executor: "ParallelExecutor | None" = None,
        limits: EvaluationLimits = DEFAULT_LIMITS,
        *,
        execution: ExecutionMode = DEFAULT_EXECUTION,
        evaluators: "ProgramEvaluators | None" = None,
        plan: "ShardingPlan | None" = None,
    ):
        if executor is None:
            executor = SequentialExecutor(spec.shard_count)
        if executor.shard_count != spec.shard_count:
            raise EvaluationError(
                f"executor has {executor.shard_count} shards but the spec asks for "
                f"{spec.shard_count}"
            )
        if evaluators is None:
            evaluators = ProgramEvaluators(limits, execution=execution)
        elif evaluators.execution != execution or evaluators.limits != limits:
            raise EvaluationError(
                f"the supplied ProgramEvaluators were built for "
                f"execution={evaluators.execution!r} with limits {evaluators.limits}, "
                f"but this fixpoint asks for execution={execution!r} with limits {limits}"
            )
        self.program = program
        self.spec = spec
        self.executor = executor
        self.limits = limits
        self.execution: ExecutionMode = execution
        self.evaluators = evaluators
        #: The per-stratum sharding plan.  When the caller hands over a
        #: consumer-aligned plan (:func:`~repro.storage.partition.choose_sharding_plan`)
        #: its modes, replication set, and repartition steps drive the
        #: execution; otherwise :func:`~repro.storage.partition.plan_for_spec`
        #: derives the modes the given spec supports, which reproduces the
        #: legacy aligned-or-replicated behaviour exactly.
        self.plan = plan if plan is not None else plan_for_spec(program, spec)
        #: Whether every stratum runs sound on bare partitions under the
        #: spec: process workers then own 1/N of the data (plus full copies
        #: of the plan's replicated relations), and only genuinely
        #: cross-shard rows are exchanged.  Otherwise workers keep full
        #: replicas, which is always correct.
        self.partitioned = self.plan.partitioned
        #: The partitioned mirror of the instance being evaluated (set by
        #: :meth:`attach`); the serving layer reads shard sizes off it.
        self.sharded: "ShardedInstance | None" = None
        #: Extension attempts accumulated per shard across all rounds since
        #: the last :meth:`attach` — the work-partitioning evidence the
        #: sharding benchmark asserts near-linearity on.
        self.per_shard_extension_attempts: list[int] = [0] * spec.shard_count

    # -- lifecycle ---------------------------------------------------------------------

    def attach(self, current: Instance) -> None:
        """Bind this fixpoint (mirror, workers, counters) to *current*."""
        if self.plan.repartitions:
            # Per-stratum repartition steps mutate the spec's key table as
            # strata enter; every fresh evaluation starts from the plan's
            # entry keys again.
            self.spec.keys.clear()
            self.spec.keys.update(self.plan.keys)
        self.sharded = ShardedInstance.from_instance(current, self.spec)
        self.per_shard_extension_attempts = [0] * self.spec.shard_count
        self.executor.attach(
            self.program,
            self.limits,
            self.execution,
            current,
            spec=self.spec,
            partitioned=self.partitioned,
            partitions=self.sharded.shards,
            modes=self.plan.modes,
        )

    def absorb(self, added: "Collection[Fact]", removed: "Collection[Fact]" = ()) -> None:
        """Mirror facts the owner applied to the authoritative instance.

        Keeps the partitioned view and (lazily, via the executor's catch-up
        queues) the worker replicas consistent with parent-side phases that
        do not run through :meth:`round` — counting maintenance, EDB deltas,
        overdeletion, rederivation.
        """
        if self.sharded is None:
            return
        for fact in removed:
            self.sharded.discard_fact(fact)
        for fact in added:
            self.sharded.add_fact(fact)
        self.executor.sync(added, removed)

    def close(self) -> None:
        """Release the executor's workers."""
        self.executor.close()

    # -- evaluation --------------------------------------------------------------------

    def evaluate(
        self,
        instance: Instance,
        *,
        seed_facts: "Iterable[Fact] | None" = None,
        statistics: "EvaluationStatistics | None" = None,
    ) -> Instance:
        """Evaluate the program shard-parallel; extensionally identical to
        :func:`~repro.engine.fixpoint.evaluate_program` on the same inputs."""
        if statistics is None:
            statistics = EvaluationStatistics()
        current = instance.copy()
        if seed_facts is not None:
            for fact in seed_facts:
                current.add_fact(fact)
        self.attach(current)
        for index in range(len(self.program.strata)):
            rounds = self.stratum_fixpoint(index, current, statistics)
            statistics.merge_stratum(rounds)
        for name in self.program.idb_relation_names():
            current.ensure_relation(name)
        return current

    def stratum_fixpoint(
        self, index: int, current: Instance, statistics: EvaluationStatistics
    ) -> int:
        """Run stratum *index* to its fixpoint on *current*; return the rounds.

        The single-process engine opens with one naive round; here the
        opening round is the semi-naive round whose delta is *everything*
        (each derivation trivially has a body fact in the delta, so the two
        are equivalent) — which is exactly the shape the partitioning wants.
        The only rules that trick misses are those with no positive body
        predicate at all (ground facts, negation/equation-only bodies):
        delta restriction never fires them, so they run once upfront.
        """
        stratum = self.program.strata[index]
        self._maybe_repartition(index, current, statistics)
        for rule in stratum:
            current.ensure_relation(rule.head.name)
        bootstrap: set[Fact] = set()
        positive: set[str] = set()
        for evaluator in self.evaluators.for_stratum(stratum):
            if evaluator.body_relation_names:
                positive |= evaluator.body_relation_names
                continue
            statistics.rule_applications += 1
            for fact in evaluator.derive(current, statistics=statistics):
                if fact not in current:
                    bootstrap.add(fact)
        for fact in bootstrap:
            current.add_fact(fact)
        statistics.facts_derived += len(bootstrap)
        if bootstrap:
            self.absorb(bootstrap)
        if self.executor.supports_router:
            rounds = self._router_stratum(index, current, sorted(positive), statistics)
            return max(rounds, 1)
        delta = {
            Fact(name, row)
            for name in positive & current.relation_names
            for row in current.relation(name)
        }
        rounds, _ = self.propagate(index, current, delta, statistics)
        return max(rounds, 1)

    def _maybe_repartition(
        self, index: int, current: Instance, statistics: EvaluationStatistics
    ) -> None:
        """Execute the plan's repartition step for stratum *index*, if it pays.

        A one-shot exchange at stratum entry: the spec's key table adopts
        the stratum-local keys, the mirror re-splits the rekeyed relations,
        and the executor wholesale-replaces the worker partitions (draining
        the catch-up queues first).  The cost gate compares the rows that
        would move against the stratum's body size — repartitioning a huge
        relation to save a small stratum's exchange never pays.
        """
        changes = self.plan.repartitions.get(index)
        if not changes:
            return
        live = {
            name: key
            for name, key in changes.items()
            if self.spec.keys.get(name) != key
        }
        if not live:
            return
        stratum = self.program.strata[index]
        body_rows = sum(
            len(current.relation(name))
            for name in stratum.body_relation_names()
            if name in current.relation_names
        )
        move_rows = sum(
            len(current.relation(name))
            for name in live
            if name in current.relation_names
        )
        if not repartition_pays(move_rows, body_rows, self.spec.shard_count):
            return
        rows_by_name = {
            name: (
                set(current.relation(name))
                if name in current.relation_names
                else set()
            )
            for name in live
        }
        self.spec.keys.update(live)
        assert self.sharded is not None
        for name, rows in rows_by_name.items():
            for shard, part in enumerate(self.spec.partition_rows(name, rows)):
                self.sharded.shards[shard].set_relation_rows(name, set(part))
        self.executor.repartition(live, rows_by_name)
        self._drain_exchange(statistics)

    def _router_stratum(
        self,
        index: int,
        current: Instance,
        body_names: "list[str]",
        statistics: EvaluationStatistics,
    ) -> int:
        """A whole stratum fixpoint with the parent acting as a row router.

        Every worker seeds its frontier from its own partition, retains its
        home derivations as the next frontier, and ships only the genuinely
        cross-shard rows — which the parent forwards without decoding.  The
        head partitions are collected once at the end and folded into the
        authoritative instance and the mirror.
        """
        executor = self.executor
        stratum = self.program.strata[index]
        frontier_left = executor.router_start(body_names)
        iterations = 0
        derived = 0
        while True:
            active = [
                shard
                for shard in range(self.spec.shard_count)
                if frontier_left[shard] or executor.pending_rows(shard)
            ]
            if not active:
                break
            iterations += 1
            self.limits.check_iterations(iterations)
            stats_parts = [EvaluationStatistics() for _ in range(self.spec.shard_count)]
            counted, frontier_left, shipped = executor.router_round(
                active, index, stats_parts
            )
            statistics.shard_rounds += 1
            statistics.cross_shard_facts += shipped
            for shard, shard_stats in enumerate(stats_parts):
                self.per_shard_extension_attempts[shard] += shard_stats.extension_attempts
                statistics.absorb_counters(shard_stats)
            derived += sum(counted)
            self.limits.check_fact_count(current.fact_count() + derived)
        statistics.facts_derived += derived
        heads = sorted(stratum.head_relation_names())
        assert self.sharded is not None
        for shard, dump in enumerate(executor.router_dump(heads)):
            for name in heads:
                self.sharded.shards[shard].set_relation_rows(name, set(dump.get(name, ())))
        for name in heads:
            merged: set = set()
            for shard_instance in self.sharded.shards:
                merged |= shard_instance.relation(name)
            current.set_relation_rows(name, merged)
        replicated_heads = set(heads) & self.spec.replicated
        if replicated_heads:
            # A replicated IDB relation (derived here, read — possibly under
            # negation — by later strata) must reach every worker's replica;
            # the router only home-routed its rows.  sync() broadcasts
            # replicated adds, and worker-side re-adds are idempotent.
            self.executor.sync(
                {
                    Fact(name, row)
                    for name in replicated_heads
                    for row in current.relation(name)
                }
            )
        self._drain_exchange(statistics)
        return iterations

    def propagate(
        self,
        index: int,
        current: Instance,
        delta_facts: "set[Fact]",
        statistics: EvaluationStatistics,
        *,
        collect: bool = False,
        iterations_before: int = 0,
    ) -> "tuple[int, set[Fact]]":
        """Shard-parallel analogue of :func:`~repro.engine.fixpoint.propagate_delta`.

        *delta_facts* must already be present in *current*.  Each round
        partitions the delta by home shard, runs the per-shard delta-
        restricted applications (remotely or in-process, the executor's
        call), merges and applies the net-new facts, and queues the
        cross-shard rows for the replicas.
        """
        if self.sharded is None:
            raise EvaluationError("ShardedFixpoint.propagate called before attach()")
        iterations = iterations_before
        added: set[Fact] = set()
        parts = self._delta_parts(index, delta_facts)
        if any(parts):
            resident = self._propagate_resident(index, current, parts, statistics)
            if resident is not None:
                rounds, net = resident
                if collect:
                    added |= net
                return rounds, added
        while any(parts):
            iterations += 1
            self.limits.check_iterations(iterations)
            stats_parts = [EvaluationStatistics() for _ in range(self.spec.shard_count)]
            results = self.executor.round(index, parts, stats_parts)
            remote = results is not None
            if results is None:
                results = self._local_round(index, parts, stats_parts, current)
            statistics.shard_rounds += 1
            # One pass per derived fact: membership + apply on the
            # authoritative instance (storage-level, the facts come from the
            # rule evaluators and are well-formed), home routing for the
            # mirror and the next round's frontier.
            net: set[Fact] = set()
            parts = [set() for _ in range(self.spec.shard_count)]
            for shard_new in results:
                for fact in shard_new:
                    name = fact.relation
                    storage = current.storage(name)
                    if storage is None:
                        current.ensure_relation(name)
                        storage = current.storage(name)
                    if not storage.add(fact.paths):
                        continue
                    net.add(fact)
                    home = self.spec.shard_of_fact(fact)
                    mirror = self.sharded.shards[home]
                    mirror.ensure_relation(name)
                    mirror.storage(name).add(fact.paths)
                    parts[home].add(fact)
            for shard, shard_stats in enumerate(stats_parts):
                self.per_shard_extension_attempts[shard] += shard_stats.extension_attempts
                statistics.absorb_counters(shard_stats)
            statistics.facts_derived += len(net)
            self.limits.check_fact_count(current.fact_count())
            self.executor.sync(net, derived_by=results if remote else None)
            statistics.cross_shard_facts += self.executor.take_exchanged()
            if collect:
                added |= net
        self._drain_exchange(statistics)
        return iterations - iterations_before, added

    def _delta_parts(self, index: int, delta_facts: "set[Fact]") -> "list[set[Fact]]":
        """Partition an update delta for stratum *index* by home shard.

        In ``local`` mode on partitioned process workers, replicated-
        relation facts must reach *every* worker — a local-mode pivot is
        only complete where the valuation's home rows live, and only the
        broadcast guarantees the owning worker sees the delta.  In-process
        executors share the authoritative instance, so ownership routing is
        always complete (and avoids pivoting the same row N times).
        """
        if (
            self.partitioned
            and self.spec.replicated
            and self.executor.kind == "process"
            and self.plan.mode(index) == "local"
        ):
            return self.spec.delta_parts(delta_facts)
        return self.spec.partition_facts(delta_facts)

    def _propagate_resident(
        self,
        index: int,
        current: Instance,
        parts: "list[set[Fact]]",
        statistics: EvaluationStatistics,
    ) -> "tuple[int, set[Fact]] | None":
        """Run the whole cascade worker-resident, or ``None`` to fall back.

        One dispatch per worker instead of one per round: each worker
        chases its frontier to a local fixpoint (sound for ``local``-mode
        strata) and returns only its net-new home facts.
        """
        stats_parts = [EvaluationStatistics() for _ in range(self.spec.shard_count)]
        outcome = self.executor.run_stratum(index, parts, stats_parts)
        if outcome is None:
            return None
        results, rounds = outcome
        assert self.sharded is not None
        net: set[Fact] = set()
        for shard_new in results:
            for fact in shard_new:
                name = fact.relation
                storage = current.storage(name)
                if storage is None:
                    current.ensure_relation(name)
                    storage = current.storage(name)
                if not storage.add(fact.paths):
                    continue
                net.add(fact)
                home = self.spec.shard_of_fact(fact)
                mirror = self.sharded.shards[home]
                mirror.ensure_relation(name)
                mirror.storage(name).add(fact.paths)
        for shard, shard_stats in enumerate(stats_parts):
            self.per_shard_extension_attempts[shard] += shard_stats.extension_attempts
            statistics.absorb_counters(shard_stats)
        statistics.facts_derived += len(net)
        statistics.shard_rounds += rounds
        self.limits.check_fact_count(current.fact_count())
        self.executor.sync(net, derived_by=results)
        statistics.cross_shard_facts += self.executor.take_exchanged()
        self._drain_exchange(statistics)
        return max(rounds, 1), net

    def dred_stratum(
        self,
        index: int,
        changed: "dict[str, tuple[set, set]]",
        seeds: "set[Fact]",
        pinned: "Collection[Fact]",
        statistics: EvaluationStatistics,
    ) -> "tuple[set[Fact], set[Fact]] | None":
        """Run DRed's overdeletion + rederivation shard-parallel, or ``None``.

        Routes the removed-fact seeds (replicated relations broadcast, the
        overdeletion pivot must run where the affected valuations live) and
        the per-shard pinned facts to the workers; each runs the cascade
        and the rederivation joins against its resident partition.  The
        caller applies the returned facts to the authoritative instance
        only: every returned fact is a home row of the worker that reported
        it (local-mode strata never derive foreign rows), so the worker
        replicas are already up to date and no catch-up is queued — this
        method maintains the parent-side mirror itself.
        """
        if self.sharded is None:
            return None
        seed_parts = self.spec.delta_parts(seeds)
        pinned_parts = self.spec.partition_facts(pinned)
        stats_parts = [EvaluationStatistics() for _ in range(self.spec.shard_count)]
        outcome = self.executor.dred(
            index, changed, seed_parts, pinned_parts, stats_parts
        )
        if outcome is None:
            return None
        results, rounds = outcome
        overdeleted: set[Fact] = set()
        rederived: set[Fact] = set()
        for shard_over, shard_reder in results:
            overdeleted |= shard_over
            rederived |= shard_reder
        for fact in overdeleted:
            self.sharded.discard_fact(fact)
        for fact in rederived:
            self.sharded.add_fact(fact)
        for shard, shard_stats in enumerate(stats_parts):
            self.per_shard_extension_attempts[shard] += shard_stats.extension_attempts
            statistics.absorb_counters(shard_stats)
        statistics.maintenance_rounds += rounds + (1 if overdeleted else 0)
        statistics.facts_derived += len(rederived)
        statistics.cross_shard_facts += self.executor.take_exchanged()
        self._drain_exchange(statistics)
        return overdeleted, rederived

    def counting_stratum(
        self,
        index: int,
        changed: "dict[str, tuple[set, set]]",
        statistics: EvaluationStatistics,
    ) -> "dict[Fact, int] | None":
        """Run a counting stratum's delta joins shard-parallel, or ``None``.

        Routes each shard its home slice of the pivot rows (plus the full
        delta for overlay rebuild) and sums the returned signed counts —
        exact because the local/aligned read proofs home every derivation
        at exactly one shard.  Declines when any changed relation is
        replicated: a replicated delta row has no unique home, so pivoting
        on it at one shard would miss derivations anchored elsewhere, and
        pivoting everywhere would double count.  The caller still owns the
        count state and the net add/remove decisions.
        """
        if self.sharded is None:
            return None
        if any(name in self.spec.replicated for name in changed):
            return None
        pivot_parts: "list[dict[str, tuple[set, set]]]" = [
            {} for _ in range(self.spec.shard_count)
        ]
        for name, (added_rows, removed_rows) in changed.items():
            for polarity, rows in ((0, added_rows), (1, removed_rows)):
                for shard, shard_rows in enumerate(self.spec.partition_rows(name, rows)):
                    if not shard_rows:
                        continue
                    entry = pivot_parts[shard].setdefault(name, (set(), set()))
                    entry[polarity].update(shard_rows)
        stats_parts = [EvaluationStatistics() for _ in range(self.spec.shard_count)]
        outcome = self.executor.counting(index, changed, pivot_parts, stats_parts)
        if outcome is None:
            return None
        delta_counts: "dict[Fact, int]" = {}
        for shard_counts in outcome:
            for fact, value in shard_counts.items():
                delta_counts[fact] = delta_counts.get(fact, 0) + value
        for shard, shard_stats in enumerate(stats_parts):
            self.per_shard_extension_attempts[shard] += shard_stats.extension_attempts
            statistics.absorb_counters(shard_stats)
        statistics.cross_shard_facts += self.executor.take_exchanged()
        self._drain_exchange(statistics)
        return delta_counts

    def run_goal(
        self,
        shard: int,
        program: Program,
        seed_facts: "Collection[Fact]",
        statistics: EvaluationStatistics,
    ) -> "dict[str, set] | None":
        """Evaluate a goal program on the resident worker owning *shard*.

        Returns the result rows per relation, or ``None`` when the executor
        has no resident workers (the caller evaluates parent-side).  Only
        sound when the goal's shard footprint is exactly ``{shard}``.
        """
        if not self.executor.supports_worker_goals:
            return None
        rows = self.executor.run_goal(shard, program, seed_facts, statistics)
        self._drain_exchange(statistics)
        return rows

    def _drain_exchange(self, statistics: EvaluationStatistics) -> None:
        """Fold the executor's batch/byte exchange counters into *statistics*."""
        batches, payload = self.executor.take_exchange_stats()
        statistics.exchange_batches += batches
        statistics.exchanged_bytes += payload

    def _local_round(
        self,
        index: int,
        parts: "list[set[Fact]]",
        stats_parts: "list[EvaluationStatistics]",
        current: Instance,
    ) -> "list[set[Fact]]":
        """One in-process round: the shards run in order against *current*."""
        evaluators = self.evaluators.for_stratum(self.program.strata[index])
        delta = Instance()
        results: "list[set[Fact]]" = []
        for shard, part in enumerate(parts):
            if not part:
                results.append(set())
                continue
            delta.replace_with(part)
            changed = {fact.relation for fact in part}
            results.append(
                _apply_rules_seminaive(evaluators, current, delta, changed, stats_parts[shard])
            )
        return results


# -- tabling hook ----------------------------------------------------------------------


def goal_shard_footprint(
    compiled: "MagicProgram",
    spec: ShardingSpec,
    seed_binding: "dict[int, Path]",
) -> "frozenset[int] | None":
    """The shards a tabled goal's answers can depend on, or ``None`` for all.

    Sound and deliberately narrow: a footprint is only claimed when *every*
    EDB access of the entry's magic program is provably pinned — at the
    relation's shard-key position — to a value fixed by the seed.  Then a
    base row homed elsewhere can never satisfy any body occurrence of any
    rule, so updates routed to other shards cannot move the entry's answers
    (they are mirrored into its base copy without any propagation).

    The check accepts an EDB occurrence — positive *or negated* — when its
    key-position component is a ground constant, or a lone variable that the
    *seed* magic predicate of the same rule binds to a seed path: any base
    row that could satisfy (or, negated, block) the occurrence then carries
    that value at the relation's shard-key position, so its home shard is in
    the footprint.  Occurrences of *replicated* relations are skipped
    without pinning — their updates are broadcast and maintained through
    every entry regardless of home shard (see
    :meth:`~repro.engine.tabling.AnswerTable.apply_update`).  Recursion is
    rejected outright — a recursive goal (reachability) reaches rows an
    unbounded number of joins away from the seed, so its true footprint is
    every shard.
    """
    program = compiled.program
    if program.uses_recursion():
        return None
    seed_fact = compiled.seed_fact(seed_binding)
    seed_name = compiled.magic_seed_relation
    edb = program.edb_relation_names() - {seed_name}
    footprint: set[int] = set()
    for rule in program.rules():
        seed_values: dict = {}
        for literal in rule.body:
            if not (literal.positive and literal.is_predicate()):
                continue
            predicate = literal.atom
            if predicate.name != seed_name:
                continue
            for component, value in zip(predicate.components, seed_fact.paths):
                items = component.items
                if len(items) == 1 and not isinstance(items[0], str):
                    seed_values[items[0]] = value
        for literal in rule.body:
            if not literal.is_predicate():
                continue
            predicate = literal.atom
            if predicate.name not in edb:
                continue
            if predicate.name in spec.replicated:
                continue
            key = spec.key_for(predicate.name)
            if key is None or key >= len(predicate.components):
                return None
            component = predicate.components[key]
            items = component.items
            if not component.variables():
                if not all(isinstance(item, str) for item in items):
                    return None  # a packed constant: routing hashes it differently
                value = Path(tuple(items))
            elif len(items) == 1 and items[0] in seed_values:
                value = seed_values[items[0]]
            else:
                return None
            footprint.add(stable_hash_path(value) % spec.shard_count)
    return frozenset(footprint)
