"""Abstract syntax of Sequence Datalog (Section 2.2): expressions, rules, programs."""

from repro.syntax.expressions import (
    AtomVariable,
    Item,
    PackedExpression,
    PathExpression,
    PathVariable,
    Variable,
    atom_var,
    constant_expression,
    packed,
    path_var,
    pexpr,
)
from repro.syntax.literals import Atom, Equation, Literal, Predicate, eq, neg, pos, pred
from repro.syntax.naming import FreshNames
from repro.syntax.programs import Program, Stratum, stratify_rules
from repro.syntax.rules import Rule, fact_rule, plan_body_order, rule
from repro.syntax.substitution import Substitution

__all__ = [
    "Atom",
    "AtomVariable",
    "Equation",
    "FreshNames",
    "Item",
    "Literal",
    "PackedExpression",
    "PathExpression",
    "PathVariable",
    "Predicate",
    "Program",
    "Rule",
    "Stratum",
    "Substitution",
    "Variable",
    "atom_var",
    "constant_expression",
    "eq",
    "fact_rule",
    "neg",
    "packed",
    "path_var",
    "pexpr",
    "plan_body_order",
    "pos",
    "pred",
    "rule",
    "stratify_rules",
]
