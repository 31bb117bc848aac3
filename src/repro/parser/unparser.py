"""Rendering programs, rules, and instances back to parseable text.

The unparser produces the paper's notation (``←``, ``¬``, ``·``, ``ϵ``) in a
form that :func:`repro.parser.parse_program` accepts again, so that
``parse(unparse(p)) == p`` (up to stratification mode) — a property tested in
``tests/parser/test_roundtrip.py``.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.model.instance import Instance
from repro.model.terms import Packed, Path
from repro.syntax.expressions import (
    AtomVariable,
    PackedExpression,
    PathExpression,
    PathVariable,
)
from repro.syntax.literals import Equation, Literal, Predicate
from repro.syntax.programs import Program, Stratum
from repro.syntax.rules import Rule

__all__ = [
    "unparse_expression",
    "unparse_literal",
    "unparse_rule",
    "unparse_program",
    "unparse_instance",
    "format_path",
]

_BARE_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9']*$")
_RESERVED_WORDS = {"not", "eps", "epsilon"}


def _constant_text(constant: str) -> str:
    if _BARE_NAME.match(constant) and constant not in _RESERVED_WORDS:
        return constant
    quote = '"' if "'" in constant else "'"
    if quote in constant or "\n" in constant:  # the lexer has no escapes
        raise ParseError(f"constant {constant!r} has no quoted spelling (both quotes or a newline)")
    return f"{quote}{constant}{quote}"


def unparse_expression(expression: PathExpression) -> str:
    """Render a path expression, e.g. ``a·$x·⟨@y⟩`` (``ϵ`` when empty)."""
    if expression.is_empty():
        return "ϵ"
    parts = []
    for item in expression.items:
        if isinstance(item, str):
            parts.append(_constant_text(item))
        elif isinstance(item, (AtomVariable, PathVariable)):
            parts.append(str(item))
        elif isinstance(item, PackedExpression):
            parts.append(f"<{unparse_expression(item.inner)}>")
    return "·".join(parts)


def unparse_predicate(predicate: Predicate) -> str:
    """Render a predicate."""
    if predicate.arity == 0:
        return predicate.name
    inner = ", ".join(unparse_expression(component) for component in predicate.components)
    return f"{predicate.name}({inner})"


def unparse_literal(literal: Literal) -> str:
    """Render a literal; nonequalities are rendered with ``!=``."""
    atom = literal.atom
    if isinstance(atom, Predicate):
        text = unparse_predicate(atom)
        return text if literal.positive else f"not {text}"
    if isinstance(atom, Equation):
        operator = "=" if literal.positive else "!="
        return f"{unparse_expression(atom.lhs)} {operator} {unparse_expression(atom.rhs)}"
    raise TypeError(f"unexpected atom {atom!r}")  # pragma: no cover


def unparse_rule(rule: Rule) -> str:
    """Render a rule terminated by a period."""
    head = unparse_predicate(rule.head)
    if not rule.body:
        return f"{head}."
    body = ", ".join(unparse_literal(literal) for literal in rule.body)
    return f"{head} :- {body}."


def unparse_stratum(stratum: Stratum) -> str:
    """Render the rules of one stratum, one per line."""
    return "\n".join(unparse_rule(rule) for rule in stratum)


def unparse_program(program: Program, *, explicit_strata: bool = True) -> str:
    """Render a program; strata are separated by ``---`` lines when requested."""
    blocks = [unparse_stratum(stratum) for stratum in program.strata]
    separator = "\n---\n" if explicit_strata and len(blocks) > 1 else "\n"
    return separator.join(block for block in blocks if block)


def format_path(path: Path) -> str:
    """Render a concrete path in expression syntax (parsable as a ground expression)."""
    if path.is_empty():
        return "ϵ"
    parts = []
    for value in path:
        if isinstance(value, Packed):
            parts.append(f"<{format_path(value.contents)}>")
        else:
            parts.append(_constant_text(value))
    return "·".join(parts)


def unparse_instance(instance: Instance) -> str:
    """Render an instance as a list of fact rules, sorted for stability."""
    lines = []
    for fact in instance.facts():
        if fact.arity == 0:
            lines.append(f"{fact.relation}.")
        else:
            arguments = ", ".join(format_path(path) for path in fact.paths)
            lines.append(f"{fact.relation}({arguments}).")
    return "\n".join(sorted(lines))
