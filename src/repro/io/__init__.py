"""Plain-text persistence for instances and programs, the JSON boundary
codec shared by the serving layer and its tests, and the durability layer
(write-ahead log + versioned snapshots, :mod:`repro.io.durability`)."""

from repro.io.durability import (
    FileSystemShim,
    RecoveredState,
    SessionDurability,
    WriteAheadLog,
)
from repro.io.serialization import (
    fact_from_json,
    fact_to_json,
    instance_from_text,
    instance_to_text,
    load_instance,
    load_program,
    path_from_text,
    path_to_text,
    query_result_from_json,
    query_result_to_json,
    rows_from_json,
    rows_to_json,
    save_instance,
    save_program,
    statistics_from_json,
    statistics_to_json,
    update_result_from_json,
    update_result_to_json,
)

__all__ = [
    "FileSystemShim",
    "RecoveredState",
    "SessionDurability",
    "WriteAheadLog",
    "fact_from_json",
    "fact_to_json",
    "instance_from_text",
    "instance_to_text",
    "load_instance",
    "load_program",
    "path_from_text",
    "path_to_text",
    "query_result_from_json",
    "query_result_to_json",
    "rows_from_json",
    "rows_to_json",
    "save_instance",
    "save_program",
    "statistics_from_json",
    "statistics_to_json",
    "update_result_from_json",
    "update_result_to_json",
]
