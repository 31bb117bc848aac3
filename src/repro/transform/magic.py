"""Magic-set rewriting: compile a query goal into a demand-driven program.

Given a program, its output relation, and an :class:`~repro.analysis.adornment.Adornment`
describing which output arguments the query binds, :func:`magic_rewrite`
produces an equivalent *goal-directed* program: every demanded relation gets
an adorned copy guarded by a *magic* predicate that holds exactly the bound
argument tuples the query (transitively) asks for.  Evaluated bottom-up with
the query's own bindings seeded into the magic relation, the rewritten
program derives only the facts relevant to the goal — the classic magic-set
construction, generalised to path-expression arguments.

For each analysed rule ``p(t̄) ← L₁, …, Lₙ`` with head adornment ``a`` (body
in SIPS order, see :mod:`repro.analysis.adornment`):

* the *guarded rule* ``pᵃ(t̄) ← magic_pᵃ(t̄_bound), L₁', …, Lₙ'`` where each
  positive IDB body atom is renamed to its adorned copy;
* for every positive IDB body atom ``q(ū)`` with adornment ``b`` at position
  ``i``, the *magic rule*
  ``magic_qᵇ(ū_bound) ← magic_pᵃ(t̄_bound), L₁', …, Lᵢ₋₁'``;
* one *bridge rule* copies the adorned output back to the original output
  relation name, so the query layer reads answers from the same relation in
  both modes.

**Stratified negation.**  A negated IDB atom needs its relation *completely*
evaluated; restricting it to the demanded slice would silently change answers
across negation strata.  The rewriting therefore evaluates negated relations
*fully*: the original (un-adorned) rules of every negated IDB relation — and
of every IDB relation those rules read, transitively — ride along in the
rewritten program, and restratification places them ahead of the guarded
strata that negate them, so the negated relations are sealed before any
demand-restricted rule fires.  Only the positive slice of the program is
demand-restricted; :attr:`MagicProgram.negation_strategy` records
``"stratified-full"`` when support rules were pulled in.

The rewriting refuses (raising :class:`MagicSetUnsupportedError`) when it
would be non-terminating:

* **Expanding magic recursion.**  Sequence Datalog paths come from an
  infinite domain, so a magic predicate that *extends* paths around a
  recursive call (``magic_T(a·$x) ← magic_T($x)``) enumerates unboundedly
  many subgoals even when bottom-up evaluation terminates.  A magic rule on a
  cycle of the magic dependency graph must therefore pass each bound argument
  either unchanged (a bare path variable of the guard), or built only from
  variables bound by positive non-magic body atoms (whose values come from
  the finite relations), closed under equations.  Anything else is reported
  as unsupported — or, with ``on_expanding="generalize"``, retried under a
  more general goal adornment whose magic predicates no longer carry the
  expanding argument; the caller then filters the (subsuming) answers down
  to the requested binding, which is how the subgoal answer tables
  (:mod:`repro.engine.tabling`) admit recursive goals this check used to
  refuse outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.adornment import Adornment, AdornedRule, adorn_program
from repro.errors import (
    EvaluationError,
    ExpandingMagicRecursionError,
    MagicSetUnsupportedError,
)
from repro.model.instance import Fact
from repro.model.terms import Path, as_path
from repro.syntax.expressions import PathVariable, Variable
from repro.syntax.literals import Literal, Predicate, pos
from repro.syntax.naming import FreshNames
from repro.syntax.programs import Program, strongly_connected_components
from repro.syntax.rules import Rule
from repro.transform.base import TransformationReport

__all__ = ["MagicProgram", "magic_rewrite"]


@dataclass(frozen=True)
class MagicProgram:
    """The output of :func:`magic_rewrite`, ready for seeded evaluation.

    ``adornment`` is the adornment the program was actually rewritten for;
    ``requested_adornment`` the one the caller asked for.  They differ only
    when the rewriting was *generalized* (``on_expanding="generalize"``):
    the evaluated goal then subsumes the requested one, and the caller is
    expected to filter the answers down to the requested binding.
    """

    program: Program
    output_relation: str
    adorned_output_relation: str
    magic_seed_relation: str
    adornment: Adornment
    report: TransformationReport
    requested_adornment: "Adornment | None" = None
    #: How negated IDB reads were handled: ``"none"`` when the goal never
    #: reaches one, ``"stratified-full"`` when the negated relations (and
    #: their transitive IDB support) ride along un-adorned and are evaluated
    #: fully — sealed by stratification before any demand-restricted rule.
    negation_strategy: str = "none"

    @property
    def generalized(self) -> bool:
        """Whether the evaluated goal is strictly more general than requested."""
        return (
            self.requested_adornment is not None
            and self.requested_adornment != self.adornment
        )

    def seed_fact(self, binding: "Mapping[int, Path | str] | None" = None) -> Fact:
        """The magic fact that launches the query for *binding*.

        *binding* maps the bound output positions to concrete paths; it must
        cover every bound position of the (possibly generalized) adornment,
        and extra positions — the ones a generalized rewriting no longer
        binds — are ignored.
        """
        binding = dict(binding or {})
        wanted = set(self.adornment.bound_positions)
        if not wanted <= set(binding) or (
            not self.generalized and set(binding) != wanted
        ):
            raise EvaluationError(
                f"binding positions {sorted(binding)} do not match the bound positions "
                f"{list(self.adornment.bound_positions)} of adornment {self.adornment}"
            )
        return Fact(
            self.magic_seed_relation,
            tuple(as_path(binding[position]) for position in self.adornment.bound_positions),
        )


def _adorned_suffix(adornment: Adornment) -> str:
    # Nullary relations have an empty b/f string; "g" (goal) keeps the name readable.
    return adornment.suffix() or "g"


def _guard(predicate: Predicate, adornment: Adornment, magic_name: str) -> Literal:
    return pos(
        Predicate(
            magic_name,
            tuple(predicate.components[position] for position in adornment.bound_positions),
        )
    )


def _renamed_body(
    entry: AdornedRule, adorned_names: "dict[tuple[str, Adornment], str]"
) -> list[Literal]:
    renamed: list[Literal] = []
    for literal, adornment in zip(entry.order, entry.body_adornments):
        if adornment is None:
            renamed.append(literal)
        else:
            predicate: Predicate = literal.atom  # type: ignore[assignment]
            renamed.append(
                Literal(predicate.renamed(adorned_names[(predicate.name, adornment)]), True)
            )
    return renamed


def _finitely_bound_variables(prefix: Sequence[Literal]) -> frozenset[Variable]:
    """Variables whose values are drawn from relations, closed under equations.

    A variable bound by a positive predicate of *prefix* ranges over the
    (finite) paths stored in that relation; an equation with one finitely
    bound side decomposes a finite value set, so the other side's variables
    are finitely bound too.
    """
    bound: set[Variable] = set()
    for literal in prefix:
        if literal.positive and literal.is_predicate():
            bound.update(literal.variables())
    changed = True
    while changed:
        changed = False
        for literal in prefix:
            if not (literal.positive and literal.is_equation()):
                continue
            equation = literal.atom
            for side, other in ((equation.lhs, equation.rhs), (equation.rhs, equation.lhs)):  # type: ignore[union-attr]
                if side.variables() <= bound and not other.variables() <= bound:
                    bound.update(other.variables())
                    changed = True
    return frozenset(bound)


def _expanding_component(
    head: Predicate, guard: Predicate, prefix: Sequence[Literal]
) -> "object | None":
    """Return a head component that could grow along magic recursion, if any.

    Safe components either take all their path variables from finitely bound
    sources, or pass one of the guard's path variables through unchanged
    (values then stay within sub-paths of the incoming subgoal).
    """
    finitely_bound = _finitely_bound_variables(prefix)
    guard_variables = guard.variables()
    for component in head.components:
        path_variables = {
            variable
            for variable in component.variables()
            if isinstance(variable, PathVariable)
        }
        if path_variables <= finitely_bound:
            continue
        if (
            len(component.items) == 1
            and isinstance(component.items[0], PathVariable)
            and component.items[0] in guard_variables
        ):
            continue
        return component
    return None


def _check_termination(
    magic_rules: "list[tuple[Rule, str, str, Predicate, list[Literal]]]",
) -> None:
    """Reject magic rules that could expand path values along a recursion cycle."""
    successors: dict[str, set[str]] = {}
    for _, guard_name, head_name, _, _ in magic_rules:
        successors.setdefault(guard_name, set()).add(head_name)
    component_of: dict[str, int] = {}
    for index, component in enumerate(strongly_connected_components(successors)):
        for node in component:
            component_of[node] = index

    for rule, guard_name, head_name, guard, prefix in magic_rules:
        # An edge inside one strongly connected component lies on a cycle
        # (including self-loops); only those can fire unboundedly often.
        if component_of[guard_name] != component_of[head_name]:
            continue
        expanding = _expanding_component(rule.head, guard, prefix)
        if expanding is not None:
            raise ExpandingMagicRecursionError(
                f"magic predicate {head_name!r} is recursive and its argument "
                f"{expanding} can grow paths without bound (rule: {rule}); "
                f"goal-directed evaluation might not terminate where full "
                f"evaluation does"
            )


def magic_rewrite(
    program: Program,
    output_relation: str,
    adornment: "Adornment | str",
    *,
    on_expanding: str = "refuse",
) -> MagicProgram:
    """Rewrite *program* for goal-directed evaluation of ``output_relation^adornment``.

    Stratified negation is handled, not refused: negated IDB relations (and
    their transitive IDB support) are carried along un-adorned and evaluated
    fully — see :attr:`MagicProgram.negation_strategy`.  Raises
    :class:`MagicSetUnsupportedError` when the rewriting could destroy
    termination (expanding magic recursion); callers are expected to fall
    back to full evaluation in that case.

    ``on_expanding`` selects how the termination refusal is handled:

    * ``"refuse"`` (default) — raise
      :class:`~repro.errors.ExpandingMagicRecursionError` as before;
    * ``"generalize"`` — retry with progressively more general goal
      adornments (fewest unbound positions first, the all-free adornment
      last).  Unbinding the positions that feed an expanding cycle removes
      the growing argument from the magic predicates, so the generalized
      goal evaluates safely and *subsumes* the requested one; the result
      records ``requested_adornment`` and callers filter the answers down
      to the original binding (the query layer's subgoal answer tables do
      exactly that, and also serve later subsumed calls from the same
      answers).  When every generalization is still expanding — constants
      can feed bound adornments even from the all-free goal — the original
      error propagates and the caller falls back to full evaluation.
    """
    if isinstance(adornment, str):
        adornment = Adornment.from_string(adornment)
    if on_expanding not in ("refuse", "generalize"):
        raise EvaluationError(
            f"unknown on_expanding mode {on_expanding!r}; use 'refuse' or 'generalize'"
        )
    try:
        return _magic_rewrite_for(program, output_relation, adornment)
    except ExpandingMagicRecursionError:
        if on_expanding != "generalize":
            raise
        for weaker in adornment.weakenings():
            try:
                rewritten = _magic_rewrite_for(program, output_relation, weaker)
            except MagicSetUnsupportedError:
                # Any refusal — expanding again, or a soundness refusal a
                # different demand pattern provoked — just disqualifies this
                # weakening; a still-weaker one (ultimately all-free) may
                # rewrite fine.  If none does, the *original* error
                # propagates: that is the adornment the caller asked about.
                continue
            return MagicProgram(
                program=rewritten.program,
                output_relation=rewritten.output_relation,
                adorned_output_relation=rewritten.adorned_output_relation,
                magic_seed_relation=rewritten.magic_seed_relation,
                adornment=rewritten.adornment,
                report=rewritten.report,
                requested_adornment=adornment,
                negation_strategy=rewritten.negation_strategy,
            )
        raise


def _magic_rewrite_for(
    program: Program,
    output_relation: str,
    adornment: Adornment,
) -> MagicProgram:
    """The core rewriting for one fixed goal adornment."""
    adorned = adorn_program(program, output_relation, adornment)
    idb = program.idb_relation_names()

    # Stratified negation: negated IDB atoms stay un-adorned (adornment
    # assigns them no demand), so their relations must be evaluated *fully*.
    # Pull in the original defining rules of every reachable negated IDB
    # relation, closed over the IDB relations those rules read (positively or
    # negatively) — the full support subtree of every negation.  Appended
    # un-adorned, restratification seals them before the guarded strata that
    # negate them, so only the positive slice is demand-restricted.
    support_names: set[str] = set()
    pending: list[str] = []
    for entry in adorned.reachable_rules():
        for literal in entry.order:
            if literal.negative and literal.is_predicate():
                name = literal.atom.name  # type: ignore[union-attr]
                if name in idb and name not in support_names:
                    support_names.add(name)
                    pending.append(name)
    rules_by_head: dict[str, list[Rule]] = {}
    for original_rule in program.rules():
        rules_by_head.setdefault(original_rule.head.name, []).append(original_rule)
    support_rules: list[Rule] = []
    while pending:
        name = pending.pop()
        for original_rule in rules_by_head.get(name, ()):
            support_rules.append(original_rule)
            for dependency in original_rule.body_relation_names():
                if dependency in idb and dependency not in support_names:
                    support_names.add(dependency)
                    pending.append(dependency)
    negation_strategy = "stratified-full" if support_rules else "none"

    fresh = FreshNames.for_program(program)
    adorned_names: dict[tuple[str, Adornment], str] = {}
    magic_names: dict[tuple[str, Adornment], str] = {}
    for key in adorned.rules:
        name, key_adornment = key
        adorned_names[key] = fresh.relation(f"{name}_{_adorned_suffix(key_adornment)}")
        magic_names[key] = fresh.relation(f"Magic_{name}_{_adorned_suffix(key_adornment)}")

    rewritten: list[Rule] = []
    magic_rules: list[tuple[Rule, str, str, Predicate, list[Literal]]] = []
    for key, entries in adorned.rules.items():
        guard_name = magic_names[key]
        for entry in entries:
            guard = _guard(entry.rule.head, entry.head_adornment, guard_name)
            body = _renamed_body(entry, adorned_names)
            rewritten.append(
                Rule(
                    entry.rule.head.renamed(adorned_names[key]),
                    (guard,) + tuple(body),
                )
            )
            for position, (literal, body_adornment) in enumerate(
                zip(entry.order, entry.body_adornments)
            ):
                if body_adornment is None:
                    continue
                callee: Predicate = literal.atom  # type: ignore[assignment]
                callee_key = (callee.name, body_adornment)
                magic_head = Predicate(
                    magic_names[callee_key],
                    tuple(
                        callee.components[index]
                        for index in body_adornment.bound_positions
                    ),
                )
                prefix = list(entry.order[:position])
                magic_rules.append(
                    (
                        Rule(magic_head, (guard,) + tuple(body[:position])),
                        guard_name,
                        magic_names[callee_key],
                        guard.atom,  # type: ignore[arg-type]
                        prefix,
                    )
                )

    _check_termination(magic_rules)

    output_key = (output_relation, adornment)
    bridge_variables = fresh.path_variables(adornment.arity)
    bridge = Rule(
        Predicate(output_relation, tuple(bridge_variables)),
        (pos(Predicate(adorned_names[output_key], tuple(bridge_variables))),),
    )

    all_rules = (
        rewritten + [rule for rule, *_ in magic_rules] + support_rules + [bridge]
    )
    result = Program.from_rules(all_rules)
    return MagicProgram(
        program=result,
        output_relation=output_relation,
        adorned_output_relation=adorned_names[output_key],
        magic_seed_relation=magic_names[output_key],
        adornment=adornment,
        report=TransformationReport.compare(program, result),
        requested_adornment=adornment,
        negation_strategy=negation_strategy,
    )
