"""Serialisation of instances, programs, and query/update results.

Programs already have a textual syntax (:mod:`repro.parser`); instances are
stored as lists of fact rules in the same syntax, so a database plus its
queries can live in plain, diff-able files.

On top of the textual format this module provides the JSON boundary codec
shared by the serving layer (:mod:`repro.service`) and its tests: paths are
encoded in the ground expression syntax (``a·b·⟨c⟩``, parseable back through
:func:`repro.parser.parse_expression`), facts as ``[relation, path, ...]``
lists, and :class:`~repro.engine.query.QueryResult` /
:class:`~repro.engine.query.UpdateResult` as plain dicts carrying the
answers, ``served_by`` / ``fallback_reason`` provenance, and the statistics
counters.  ``X == from_json(to_json(X))`` holds field-for-field for
everything the wire format carries (a decoded ``QueryResult`` shares its
``full_instance`` with its output: the wire format intentionally ships only
the answer slice, not the whole materialization).
"""

from __future__ import annotations

import json
from dataclasses import fields as dataclass_fields
from functools import lru_cache
from pathlib import Path as FilePath
from typing import Callable, Iterable, Mapping

from repro.engine.fixpoint import EvaluationStatistics
from repro.engine.query import QueryResult, UpdateResult
from repro.errors import ParseError
from repro.model.instance import Fact, Instance
from repro.model.terms import Packed, Path
from repro.parser.lexer import Token, TokenKind, tokenize
from repro.parser.parser import parse_expression, parse_rules
from repro.parser.unparser import format_path, unparse_instance, unparse_program
from repro.syntax.programs import Program

__all__ = [
    "instance_to_text",
    "instance_from_text",
    "save_instance",
    "load_instance",
    "save_program",
    "load_program",
    "path_to_text",
    "path_from_text",
    "fact_to_json",
    "fact_from_json",
    "rows_to_json",
    "rows_from_json",
    "EncodedAnswer",
    "encode_answer",
    "memoised_answer",
    "relation_answer",
    "statistics_to_json",
    "statistics_from_json",
    "query_result_to_json",
    "query_result_from_json",
    "update_result_to_json",
    "update_result_from_json",
]


def instance_to_text(instance: Instance) -> str:
    """Render an instance as fact rules, one per line, sorted."""
    return unparse_instance(instance)


def instance_from_text(text: str) -> Instance:
    """Parse an instance from fact-rule text (every rule must be a ground fact).

    Text that is nothing but plain ground facts is read straight off the
    token stream; anything else — a variable, an arrow, a missing ``.`` —
    goes through :func:`~repro.parser.parser.parse_rules`, which owns every
    error message and position.
    """
    instance = Instance()
    facts = _read_ground_facts(tokenize(text))
    if facts is not None:
        for fact in facts:
            instance.add_fact(fact)
        return instance
    for rule in parse_rules(text):
        if rule.body or not rule.head.is_ground():
            raise ParseError(f"instance files may only contain ground facts, got {rule}")
        instance.add(
            rule.head.name,
            *(component.ground_path() for component in rule.head.components),
        )
    return instance


def _read_ground_facts(tokens: "list[Token]") -> "list[Fact] | None":
    """The facts of a token stream shaped ``Name(path, …).`` throughout, else ``None``.

    A path is ``NAME``, a non-empty ``STRING``, ``ϵ`` and ``<…>`` nesting
    joined by ``·``; the first token that does not fit gives up on the whole
    stream (nothing is half-read), so the caller's fallback reports it.
    """
    kinds = TokenKind
    position = 0

    def read_path() -> "Path | None":
        nonlocal position
        values: list = []
        while True:
            token = tokens[position]
            kind = token.kind
            if kind == kinds.NAME or (kind == kinds.STRING and token.text):
                values.append(token.text)
            elif kind == kinds.LANGLE:
                position += 1
                inner = Path(()) if tokens[position].kind == kinds.RANGLE else read_path()
                if inner is None or tokens[position].kind != kinds.RANGLE:
                    return None
                values.append(Packed(inner))
            elif kind != kinds.EPSILON:
                return None
            position += 1
            if tokens[position].kind != kinds.CONCAT:
                return Path._from_trusted(tuple(values))
            position += 1

    facts = []
    while tokens[position].kind != kinds.EOF:
        name = tokens[position]
        if name.kind != kinds.NAME:
            return None
        position += 1
        paths: list = []
        if tokens[position].kind == kinds.LPAR:
            position += 1
            while tokens[position].kind != kinds.RPAR:
                if paths:
                    if tokens[position].kind != kinds.COMMA:
                        return None
                    position += 1
                path = read_path()
                if path is None:
                    return None
                paths.append(path)
            position += 1
        if tokens[position].kind != kinds.END:
            return None
        position += 1
        facts.append(Fact._from_trusted(name.text, tuple(paths)))
    return facts


def save_instance(instance: Instance, path: "FilePath | str") -> None:
    """Write an instance to a file."""
    FilePath(path).write_text(instance_to_text(instance) + "\n", encoding="utf-8")


def load_instance(path: "FilePath | str") -> Instance:
    """Read an instance from a file."""
    return instance_from_text(FilePath(path).read_text(encoding="utf-8"))


def save_program(program: Program, path: "FilePath | str") -> None:
    """Write a program to a file in the textual syntax."""
    FilePath(path).write_text(unparse_program(program) + "\n", encoding="utf-8")


def load_program(path: "FilePath | str") -> Program:
    """Read a program from a file."""
    from repro.parser.parser import parse_program

    return parse_program(FilePath(path).read_text(encoding="utf-8"))


# -- JSON boundary codec (paths, facts, results) ---------------------------------------


@lru_cache(maxsize=1 << 16)
def path_to_text(path: Path) -> str:
    """Render a concrete path in ground expression syntax (``ϵ`` when empty)."""
    return format_path(path)


def path_from_text(text: str) -> Path:
    """Parse a path rendered by :func:`path_to_text` back into a :class:`Path`.

    Both directions are memoized: encoded answers and decoded documents
    (snapshots, WAL records, wire rows) repeat the same few node labels
    across thousands of rows, and paths are immutable values that cache
    their hash.  Only strings reach the memo.
    """
    if not isinstance(text, str):
        raise ParseError(f"path text must be a string, got {text!r}")
    return _parse_path_text(text)


@lru_cache(maxsize=1 << 16)
def _parse_path_text(text: str) -> Path:
    expression = parse_expression(text)
    if not expression.is_ground():
        raise ParseError(f"path text must be ground (no variables), got {text!r}")
    return expression.ground_path()


def fact_to_json(fact: Fact) -> list[str]:
    """Encode a fact as ``[relation, path, ...]`` (arity-0 facts are 1-lists)."""
    return [fact.relation, *(path_to_text(path) for path in fact.paths)]


def fact_from_json(data: "list[str]") -> Fact:
    """Decode a fact encoded by :func:`fact_to_json`."""
    if not isinstance(data, (list, tuple)) or not data:
        raise ParseError(f"a JSON fact is a non-empty [relation, path, ...] list, got {data!r}")
    relation, *paths = data
    return Fact(relation, tuple(path_from_text(text) for text in paths))


def rows_to_json(rows: "Iterable[tuple[Path, ...]]") -> list[list[str]]:
    """Encode relation rows as sorted lists of path texts (stable output)."""
    return sorted([path_to_text(path) for path in row] for row in rows)


class EncodedAnswer(list):
    """A read's wire rows (``rows_to_json`` of them) with their JSON text.

    A list, so it compares equal to the plain answer and ``json.dumps``
    encodes it as one; the HTTP layer splices :attr:`text` into the reply
    instead.  Read-only, like ``Relation.rows``: a memo shares it between
    every read it answers.
    """

    __slots__ = ("text",)

    def __init__(self, rows: "list[list[str]]"):
        super().__init__(rows)
        self.text = json.dumps(rows)


#: The one answer to every read with no rows, which no memo stores.
NO_ROWS = EncodedAnswer([])


def encode_answer(rows: "Iterable[tuple[Path, ...]]") -> EncodedAnswer:
    """``rows_to_json(rows)`` with its JSON text; :data:`NO_ROWS` when empty."""
    encoded = rows_to_json(rows)
    return EncodedAnswer(encoded) if encoded else NO_ROWS


def memoised_answer(
    memo: dict,
    binding: "Mapping[int, Path]",
    select: "Callable[[Mapping[int, Path]], Iterable[tuple[Path, ...]]]",
) -> EncodedAnswer:
    """``encode_answer(select(binding))``, memoised in *memo* under the binding.

    *memo* is the ``answers`` dict of the columnar view *select* reads.  A
    view's rows never change (every change of rows yields a new view, with an
    empty memo), so an entry never goes stale.  Only non-empty answers are
    stored: per bound-position shape there are at most as many as the view
    has rows, and a value with no rows leaves the memo as it was.
    """
    key = frozenset(binding.items())
    answer = memo.get(key)
    if answer is None:
        answer = encode_answer(select(binding))
        if answer:
            memo[key] = answer
    return answer


def relation_answer(
    instance: Instance, relation: str, binding: "Mapping[int, Path]"
) -> EncodedAnswer:
    """The encoded rows of *relation* in *instance* matching *binding*.

    The answer of every reply the engine serves — a tabled hit or the miss
    that tabled it, read off the entry's answers, and a full run or a goal's
    fallback, read off the full materialization — memoised on the relation's
    columnar view (:func:`memoised_answer`).
    """
    storage = instance.storage(relation)
    if not storage:
        return NO_ROWS
    view = storage.columnar(instance.term_table())
    return memoised_answer(view.answers, binding, view.select)


def rows_from_json(data: "Iterable[Iterable[str]]") -> list[tuple[Path, ...]]:
    """Decode rows encoded by :func:`rows_to_json`."""
    return [tuple(path_from_text(text) for text in row) for row in data]


def statistics_to_json(statistics: EvaluationStatistics) -> dict:
    """Encode every counter field of an :class:`EvaluationStatistics`."""
    encoded: dict = {}
    for field in dataclass_fields(statistics):
        value = getattr(statistics, field.name)
        encoded[field.name] = list(value) if isinstance(value, list) else value
    return encoded


def statistics_from_json(data: "Mapping[str, object] | None") -> EvaluationStatistics:
    """Decode statistics, tolerating records written by older engine versions.

    Unknown fields are ignored and missing ones keep their defaults, so a
    service and a client built from different commits can still exchange
    results.
    """
    statistics = EvaluationStatistics()
    if not data:
        return statistics
    known = {field.name for field in dataclass_fields(statistics)}
    for name, value in data.items():
        if name in known:
            setattr(statistics, name, list(value) if isinstance(value, list) else value)
    return statistics


def _answers_to_json(instance: Instance) -> dict[str, list[list[str]]]:
    return {
        name: rows_to_json(instance.relation(name))
        for name in sorted(instance.relation_names)
    }


def _answers_from_json(data: "Mapping[str, object]") -> Instance:
    instance = Instance()
    for name, rows in data.items():
        instance.ensure_relation(name)
        instance.set_relation_rows(name, rows_from_json(rows))
    return instance


def query_result_to_json(result: QueryResult) -> dict:
    """Encode a :class:`QueryResult` for the service boundary.

    The wire format carries the *answers* (the output sub-instance), not the
    full materialization backing them — results served from a session's
    materialization share that instance, and shipping it per query would
    defeat the serving layer.
    """
    return {
        "kind": "query_result",
        "answers": _answers_to_json(result.output),
        "output_relation": result.output_relation,
        "binding": (
            None
            if result.binding is None
            else {str(position): path_to_text(value) for position, value in result.binding.items()}
        ),
        "mode": result.mode,
        "served_by": result.served_by,
        "fallback_reason": result.fallback_reason,
        "statistics": statistics_to_json(result.statistics),
    }


def query_result_from_json(data: "Mapping[str, object]") -> QueryResult:
    """Decode a :class:`QueryResult` encoded by :func:`query_result_to_json`."""
    answers = _answers_from_json(data.get("answers", {}))
    binding = data.get("binding")
    return QueryResult(
        output=answers,
        full_instance=answers,
        statistics=statistics_from_json(data.get("statistics")),
        output_relation=data.get("output_relation"),
        binding=(
            None
            if binding is None
            else {int(position): path_from_text(text) for position, text in binding.items()}
        ),
        mode=data.get("mode", "full"),
        fallback_reason=data.get("fallback_reason"),
        served_by=data.get("served_by", "full"),
    )


def update_result_to_json(result: UpdateResult) -> dict:
    """Encode an :class:`UpdateResult` for the service boundary."""
    return {
        "kind": "update_result",
        "added": sorted(fact_to_json(fact) for fact in result.added),
        "removed": sorted(fact_to_json(fact) for fact in result.removed),
        "maintained": result.maintained,
        "fallback_reason": result.fallback_reason,
        "statistics": statistics_to_json(result.statistics),
    }


def update_result_from_json(data: "Mapping[str, object]") -> UpdateResult:
    """Decode an :class:`UpdateResult` encoded by :func:`update_result_to_json`.

    Keys other than the ones read here are ignored, as in
    :func:`statistics_from_json`.
    """
    return UpdateResult(
        added=frozenset(fact_from_json(fact) for fact in data.get("added", ())),
        removed=frozenset(fact_from_json(fact) for fact in data.get("removed", ())),
        maintained=bool(data.get("maintained", False)),
        fallback_reason=data.get("fallback_reason"),
        statistics=statistics_from_json(data.get("statistics")),
    )
