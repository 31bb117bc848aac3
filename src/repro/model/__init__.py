"""Data model for sequence databases (Section 2.1 of the paper)."""

from repro.model.builders import (
    epsilon,
    graph_instance,
    pack,
    path,
    string_path,
    unary_instance,
    word,
)
from repro.model.instance import Fact, Instance
from repro.model.schema import Schema
from repro.model.terms import (
    EPSILON,
    Packed,
    Path,
    Value,
    as_path,
    concat,
    is_atomic_value,
    is_value,
)

__all__ = [
    "EPSILON",
    "Fact",
    "Instance",
    "Packed",
    "Path",
    "Schema",
    "Value",
    "as_path",
    "concat",
    "epsilon",
    "graph_instance",
    "is_atomic_value",
    "is_value",
    "pack",
    "path",
    "string_path",
    "unary_instance",
    "word",
]
