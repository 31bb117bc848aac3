"""Fresh-name generation for relations and variables.

Program transformations (Section 4) constantly need relation names and
variables that do not clash with anything already in the program.  A
:class:`FreshNames` generator is seeded with the names in use and hands out
new ones deterministically, which keeps transformations reproducible.
"""

from __future__ import annotations

from typing import Iterable

from repro.syntax.expressions import AtomVariable, PathVariable, Variable
from repro.syntax.programs import Program
from repro.syntax.rules import Rule

__all__ = ["FreshNames"]


class FreshNames:
    """Deterministic generator of unused relation and variable names."""

    def __init__(
        self,
        used_relations: Iterable[str] = (),
        used_variables: Iterable[Variable] = (),
    ):
        self._used_relations = set(used_relations)
        self._used_variable_names = {variable.name for variable in used_variables}
        self._relation_counters: dict[str, int] = {}
        self._variable_counters: dict[str, int] = {}

    # -- constructors ----------------------------------------------------------------

    @staticmethod
    def for_program(program: Program) -> "FreshNames":
        """Seed a generator with every name used by *program*."""
        variables: set[Variable] = set()
        for rule in program.rules():
            variables.update(rule.variables())
        return FreshNames(program.relation_names(), variables)

    @staticmethod
    def for_rules(rules: Iterable[Rule]) -> "FreshNames":
        """Seed a generator with every name used by *rules*."""
        relations: set[str] = set()
        variables: set[Variable] = set()
        for rule in rules:
            relations.update(rule.relation_names())
            variables.update(rule.variables())
        return FreshNames(relations, variables)

    # -- generation ---------------------------------------------------------------------

    def relation(self, base: str = "Aux") -> str:
        """Return a fresh relation name derived from *base*."""
        counter = self._relation_counters.get(base, 0)
        while True:
            candidate = f"{base}_{counter}" if counter else base
            counter += 1
            if candidate not in self._used_relations:
                self._relation_counters[base] = counter
                self._used_relations.add(candidate)
                return candidate

    def path_variable(self, base: str = "v") -> PathVariable:
        """Return a fresh path variable derived from *base*."""
        return PathVariable(self._variable_name(base))

    def atom_variable(self, base: str = "u") -> AtomVariable:
        """Return a fresh atomic variable derived from *base*."""
        return AtomVariable(self._variable_name(base))

    def path_variables(self, count: int, base: str = "v") -> list[PathVariable]:
        """Return *count* fresh path variables."""
        return [self.path_variable(base) for _ in range(count)]

    def _variable_name(self, base: str) -> str:
        counter = self._variable_counters.get(base, 0)
        while True:
            candidate = f"{base}{counter}" if counter else base
            counter += 1
            if candidate not in self._used_variable_names:
                self._variable_counters[base] = counter
                self._used_variable_names.add(candidate)
                return candidate
