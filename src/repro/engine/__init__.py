"""Evaluation engine: matching, rule evaluation, stratified fixpoints, queries."""

from repro.engine.compiled import CompiledProgram, CompiledRule, evaluate_rule
from repro.engine.evaluation import plan_literal_sequence
from repro.engine.fixpoint import (
    EvaluationStatistics,
    evaluate_program,
    evaluate_stratum,
    propagate_delta,
)
from repro.engine.limits import DEFAULT_LIMITS, EvaluationLimits
from repro.engine.maintenance import MaintainedFixpoint, MaintenanceResult
from repro.engine.match import match_components, match_expression, match_fact
from repro.engine.query import (
    ProgramQuery,
    QueryMode,
    QueryResult,
    QuerySession,
    UpdateResult,
)
from repro.engine.tabling import AnswerTable, TableEntry
from repro.engine.valuation import Valuation

__all__ = [
    "DEFAULT_LIMITS",
    "AnswerTable",
    "CompiledProgram",
    "CompiledRule",
    "EvaluationLimits",
    "EvaluationStatistics",
    "MaintainedFixpoint",
    "MaintenanceResult",
    "ProgramQuery",
    "QueryMode",
    "QueryResult",
    "QuerySession",
    "TableEntry",
    "UpdateResult",
    "Valuation",
    "evaluate_program",
    "evaluate_rule",
    "evaluate_stratum",
    "match_components",
    "match_expression",
    "match_fact",
    "plan_literal_sequence",
    "propagate_delta",
]
