"""Evaluation engine: matching, rule evaluation, stratified fixpoints, queries."""

from repro.engine.evaluation import (
    RuleEvaluator,
    evaluate_rule,
    plan_body_order,
    plan_literal_sequence,
)
from repro.engine.fixpoint import (
    EvaluationStatistics,
    ProgramEvaluators,
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
    "EvaluationLimits",
    "EvaluationStatistics",
    "MaintainedFixpoint",
    "MaintenanceResult",
    "ProgramEvaluators",
    "ProgramQuery",
    "QueryMode",
    "QueryResult",
    "QuerySession",
    "RuleEvaluator",
    "TableEntry",
    "UpdateResult",
    "Valuation",
    "evaluate_program",
    "evaluate_rule",
    "evaluate_stratum",
    "match_components",
    "match_expression",
    "match_fact",
    "plan_body_order",
    "plan_literal_sequence",
    "propagate_delta",
]
