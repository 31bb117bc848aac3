"""Packing elimination for nonrecursive programs (Lemmas 4.10, 4.12, 4.13).

The elimination proceeds in three layers, exactly following Section 4.3:

1. **Impure-variable elimination** (Lemma 4.10).  While a rule has a
   half-pure positive equation, its pure side is linearised with fresh
   variables, the resulting one-sided nonlinear equation is solved completely
   by associative unification, and the rule is split into one instance per
   *valid* symbolic solution (one that maps pure variables to packing-free
   expressions).  Afterwards every positive equation is pure.

2. **Packing-structure splitting** (Lemma 4.12).  A pure equation can only be
   satisfiable on flat instances if both sides have the same packing
   structure; it is then replaced by the equations between corresponding
   components, which are packing-free.  Negated pure equations become a
   disjunction of component nonequalities (one rule per disjunct), or
   disappear when the structures differ.

3. **Head and call rewriting** (Lemma 4.13).  Stratum by stratum (one IDB
   relation per stratum, callees first), heads whose components have
   non-trivial packing structures are replaced by fresh relations holding the
   packing-free components; calls in later strata are expanded per registered
   structure; positive EDB predicates containing packing can never match flat
   input and are dropped together with their rules, negated ones are always
   true and simply removed.

The recursive case (Theorem 4.15) relies on the doubling encoding of
:mod:`repro.transform.doubling` and the J-Logic flat–flat construction; see
DESIGN.md for the scope discussion.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from itertools import product

from repro.errors import TransformationError
from repro.fragments.features import Feature, program_features
from repro.syntax.expressions import (
    AtomVariable,
    PathExpression,
    PathVariable,
    Variable,
)
from repro.syntax.literals import Equation, Literal, Predicate
from repro.syntax.naming import FreshNames
from repro.syntax.programs import Program, Stratum
from repro.syntax.rules import Rule
from repro.syntax.substitution import Substitution
from repro.transform.purity import HALF_PURE, classify_equation, pure_variables
from repro.transform.structures import PackingStructure, structure_and_components
from repro.unification.pigpug import solve_equation

__all__ = [
    "purify_rule",
    "flatten_rule",
    "eliminate_packing",
]

#: Node budget per unification call during purification.
_UNIFICATION_BUDGET = 50_000


# -- Lemma 4.10: eliminating impure variables ------------------------------------------------------------


def _find_half_pure_equation(rule: Rule, flat_relations: frozenset[str]) -> Literal | None:
    pure = pure_variables(rule, flat_relations)
    for literal in rule.body:
        if literal.positive and literal.is_equation():
            if classify_equation(literal.atom, pure) == HALF_PURE:  # type: ignore[arg-type]
                return literal
    return None


def _linearise(
    expression: PathExpression, fresh: FreshNames
) -> tuple[PathExpression, list[Equation]]:
    """Replace each variable occurrence by a fresh variable, returning the link equations."""
    replacements: list[object] = []
    links: list[Equation] = []

    def process(expr: PathExpression) -> PathExpression:
        parts: list[object] = []
        for item in expr.items:
            if isinstance(item, AtomVariable):
                copy = fresh.atom_variable(item.name)
                links.append(Equation(PathExpression.of(item), PathExpression.of(copy)))
                parts.append(copy)
            elif isinstance(item, PathVariable):
                copy = fresh.path_variable(item.name)
                links.append(Equation(PathExpression.of(item), PathExpression.of(copy)))
                parts.append(copy)
            elif isinstance(item, str):
                parts.append(item)
            else:  # PackedExpression
                from repro.syntax.expressions import PackedExpression

                parts.append(PackedExpression(process(item.inner)))
        return PathExpression.of(*parts)

    linearised = process(expression)
    del replacements
    return linearised, links


def purify_rule(
    rule: Rule,
    flat_relations: frozenset[str],
    fresh: FreshNames | None = None,
) -> list[Rule]:
    """Rewrite *rule* into rules whose positive equations are all pure (Lemma 4.10)."""
    fresh = fresh or FreshNames.for_rules([rule])
    half_pure = _find_half_pure_equation(rule, flat_relations)
    if half_pure is None:
        return [rule]

    equation: Equation = half_pure.atom  # type: ignore[assignment]
    pure = pure_variables(rule, flat_relations)
    if equation.lhs.variables() <= pure:
        pure_side, impure_side = equation.lhs, equation.rhs
    else:
        pure_side, impure_side = equation.rhs, equation.lhs

    # Shortcut: if the impure side is a single path variable, the unique symbolic
    # solution is to substitute the pure side for it directly.  This avoids the
    # subset enumeration of the general procedure and keeps the output close to
    # the sizes reported in the paper (Example 4.14).
    if (
        len(impure_side.items) == 1
        and isinstance(impure_side.items[0], PathVariable)
        and impure_side.items[0] not in pure_side.variables()
    ):
        variable = impure_side.items[0]
        candidate = rule.without_literals([half_pure]).substitute(
            Substitution({variable: pure_side})
        )
        return purify_rule(candidate, flat_relations, fresh)

    linearised, links = _linearise(pure_side, fresh)
    solving_equation = Equation(linearised, impure_side)
    if not solving_equation.is_one_sided_nonlinear():
        raise TransformationError(
            f"internal error: {solving_equation} should be one-sided nonlinear"
        )
    solutions = solve_equation(
        solving_equation, allow_empty=True, node_budget=_UNIFICATION_BUDGET
    )

    base = rule.without_literals([half_pure]).with_extra_literals(
        [Literal(link, True) for link in links]
    )
    base_pure = pure_variables(base, flat_relations)

    results: list[Rule] = []
    for solution in solutions:
        # Valid solutions map pure variables of the reduced rule to packing-free expressions.
        valid = all(
            not solution[variable].has_packing()
            for variable in solution.domain
            if variable in base_pure
        )
        if not valid:
            continue
        candidate = base.substitute(solution)
        results.extend(purify_rule(candidate, flat_relations, fresh))
    return results


# -- Lemma 4.12: removing packing from equations ----------------------------------------------------------


def _split_positive_equations(rule: Rule) -> Rule | None:
    """Replace pure positive equations with packing by their component equations.

    Returns ``None`` when some equation's sides have different packing
    structures (the rule is unsatisfiable on flat instances).
    """
    new_body: list[Literal] = []
    for literal in rule.body:
        if not (literal.positive and literal.is_equation()):
            new_body.append(literal)
            continue
        equation: Equation = literal.atom  # type: ignore[assignment]
        if not equation.has_packing():
            new_body.append(literal)
            continue
        left_structure, left_components = structure_and_components(equation.lhs)
        right_structure, right_components = structure_and_components(equation.rhs)
        if left_structure != right_structure:
            return None
        for left, right in zip(left_components, right_components):
            new_body.append(Literal(Equation(left, right), True))
    return Rule(rule.head, new_body)


def _split_negated_equations(rule: Rule) -> list[Rule]:
    """Replace negated equations with packing by one rule per component nonequality."""
    for index, literal in enumerate(rule.body):
        if literal.negative and literal.is_equation() and literal.atom.has_packing():
            equation: Equation = literal.atom  # type: ignore[assignment]
            left_structure, left_components = structure_and_components(equation.lhs)
            right_structure, right_components = structure_and_components(equation.rhs)
            prefix = rule.body[:index]
            suffix = rule.body[index + 1:]
            if left_structure != right_structure:
                # The equation can never hold on flat instances, so its negation is true.
                reduced = Rule(rule.head, prefix + suffix)
                return _split_negated_equations(reduced)
            results: list[Rule] = []
            for left, right in zip(left_components, right_components):
                disjunct = Rule(
                    rule.head,
                    prefix + (Literal(Equation(left, right), False),) + suffix,
                )
                results.extend(_split_negated_equations(disjunct))
            return results
    return [rule]


def flatten_rule(rule: Rule, flat_relations: frozenset[str], fresh: FreshNames | None = None) -> list[Rule]:
    """Lemma 4.12: equivalent rules with pure variables and packing-free equations."""
    results: list[Rule] = []
    for purified in purify_rule(rule, flat_relations, fresh):
        split = _split_positive_equations(purified)
        if split is None:
            continue
        results.extend(_split_negated_equations(split))
    return results


# -- Lemma 4.13: full packing elimination for nonrecursive programs ------------------------------------------


def _strata_by_relation(program: Program) -> list[tuple[str, list[Rule]]]:
    """Split a nonrecursive program into one stratum per IDB relation, callees first."""
    try:
        order = list(TopologicalSorter(program.idb_dependencies()).static_order())
    except CycleError as exc:  # pragma: no cover - guarded by caller
        raise TransformationError("program is recursive") from exc
    rules_by_head: dict[str, list[Rule]] = {}
    for rule in program.rules():
        rules_by_head.setdefault(rule.head.name, []).append(rule)
    return [(name, rules_by_head.get(name, [])) for name in order if name in rules_by_head]


def _expand_processed_calls(
    rule: Rule,
    registry: dict[str, dict[tuple[PackingStructure, ...], str]],
    fresh: FreshNames,
) -> list[Rule]:
    """Expand positive calls to already-processed relations, one copy per registered structure."""
    expansions: list[list[tuple[Literal, list[Literal]]]] = []
    for literal in rule.body:
        if not (literal.positive and literal.is_predicate()):
            expansions.append([(literal, [])])
            continue
        predicate: Predicate = literal.atom  # type: ignore[assignment]
        if predicate.name not in registry:
            expansions.append([(literal, [])])
            continue
        options: list[tuple[Literal, list[Literal]]] = []
        for structures, name in registry[predicate.name].items():
            if all(structure.is_trivial() for structure in structures):
                # The relation's flat facts stay under the original name; a call
                # whose arguments contain explicit packing can never match them.
                if not predicate.has_packing():
                    options.append((literal, []))
                continue
            call_variables: list[PathVariable] = []
            extra: list[Literal] = []
            for component_expression, structure in zip(predicate.components, structures):
                fillers = [fresh.path_variable("pk") for _ in range(structure.star_count())]
                call_variables.extend(fillers)
                rebuilt = structure.rebuild([PathExpression.of(v) for v in fillers])
                extra.append(Literal(Equation(component_expression, rebuilt), True))
            replacement = Literal(Predicate(name, tuple(PathExpression.of(v) for v in call_variables)), True)
            options.append((replacement, extra))
        if not options:
            # The called relation can never contain any fact: the rule is dead.
            return []
        expansions.append(options)

    results: list[Rule] = []
    for combination in product(*expansions):
        body: list[Literal] = []
        for literal, extra in combination:
            body.append(literal)
            body.extend(extra)
        results.append(Rule(rule.head, body))
    return results


def _drop_packed_edb_literals(rule: Rule, flat_relations: frozenset[str]) -> Rule | None:
    """Handle body predicates over flat relations that mention packing.

    Positive ones can never match flat data (drop the rule); negated ones are
    always true (drop the literal).
    """
    body: list[Literal] = []
    for literal in rule.body:
        if literal.is_predicate() and literal.atom.name in flat_relations and literal.has_packing():
            if literal.positive:
                return None
            continue
        body.append(literal)
    return Rule(rule.head, body)


def _rewrite_negated_processed_calls(
    rule: Rule,
    registry: dict[str, dict[tuple[PackingStructure, ...], str]],
) -> Rule | None:
    """Rewrite negated calls to processed relations by packing structure."""
    body: list[Literal] = []
    for literal in rule.body:
        if not (literal.negative and literal.is_predicate()):
            body.append(literal)
            continue
        predicate: Predicate = literal.atom  # type: ignore[assignment]
        if predicate.name not in registry:
            body.append(literal)
            continue
        structures = []
        flattened: list[PathExpression] = []
        for component in predicate.components:
            structure, comps = structure_and_components(component)
            structures.append(structure)
            flattened.extend(comps)
        key = tuple(structures)
        name = registry[predicate.name].get(key)
        if name is None:
            # No fact of that shape can exist: the negated literal is true.
            continue
        body.append(Literal(Predicate(name, tuple(flattened)), False))
    return Rule(rule.head, body)


def _rewrite_head(
    rule: Rule,
    registry: dict[str, dict[tuple[PackingStructure, ...], str]],
    fresh: FreshNames,
) -> Rule:
    """Replace the head by its packing-structure relation (Lemma 4.13)."""
    structures: list[PackingStructure] = []
    flattened: list[PathExpression] = []
    for component in rule.head.components:
        structure, comps = structure_and_components(component)
        structures.append(structure)
        flattened.extend(comps)
    key = tuple(structures)
    relation_registry = registry.setdefault(rule.head.name, {})
    if all(structure.is_trivial() for structure in structures):
        relation_registry.setdefault(key, rule.head.name)
        return rule
    name = relation_registry.get(key)
    if name is None:
        name = fresh.relation(f"{rule.head.name}_ps{len(relation_registry)}")
        relation_registry[key] = name
    return Rule(Predicate(name, tuple(flattened)), rule.body)


def eliminate_packing(program: Program) -> Program:
    """Remove the P feature from a nonrecursive program (Lemma 4.13).

    The program's EDB relations are assumed to hold flat data (the query
    setting of Section 3.1).  Recursive programs are rejected; for those the
    paper combines the doubling encoding with the J-Logic construction
    (Theorem 4.15), see :mod:`repro.transform.doubling`.
    """
    if program.uses_recursion():
        raise TransformationError(
            "packing elimination is implemented for nonrecursive programs; for recursive "
            "programs use the doubling encoding (Theorem 4.15, repro.transform.doubling)"
        )
    if Feature.PACKING not in program_features(program):
        return program

    fresh = FreshNames.for_program(program)
    edb = program.edb_relation_names()
    registry: dict[str, dict[tuple[PackingStructure, ...], str]] = {}
    flat_relations = set(edb)

    new_strata: list[Stratum] = []
    for relation, rules in _strata_by_relation(program):
        stratum_rules: list[Rule] = []
        for rule in rules:
            for expanded in _expand_processed_calls(rule, registry, fresh):
                guarded = _drop_packed_edb_literals(expanded, frozenset(edb))
                if guarded is None:
                    continue
                for flattened in flatten_rule(guarded, frozenset(flat_relations), fresh):
                    rewritten = _rewrite_negated_processed_calls(flattened, registry)
                    if rewritten is None:
                        continue
                    final = _rewrite_head(rewritten, registry, fresh)
                    stratum_rules.append(final)
        if stratum_rules:
            new_strata.append(Stratum(stratum_rules))
        # Every relation introduced for this head holds packing-free components;
        # relations whose rules all disappeared are registered as empty so that
        # later calls to them are recognised (positive calls die, negated calls
        # are vacuously true).
        registry.setdefault(relation, {})
        flat_relations.add(relation)
        flat_relations.update(registry.get(relation, {}).values())

    result = Program(new_strata) if new_strata else Program.single_stratum([])
    if Feature.PACKING in program_features(result):
        raise TransformationError("packing elimination failed to remove the P feature")
    return result
