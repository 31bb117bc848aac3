"""The reason-code contract (:mod:`repro.engine.reasons`).

Every stringly-typed fallback or eviction reason the engine emits — a
``QueryResult``/``UpdateResult`` ``fallback_reason``, an ``AnswerTable``
eviction reason, a ``SessionRegistry`` session-eviction reason — is
formatted ``<code>`` or ``<code>: <detail>`` with the code drawn from the
closed ``REASON_CODES`` set.  The closure tests below drive one *real*
emission per code through the public surfaces and assert each parses back
to a registered code, so introducing a new reason string without
registering it in :mod:`repro.engine.reasons` fails here by construction.
"""

import asyncio

import pytest

from repro.engine import EvaluationLimits, ProgramQuery
from repro.engine.compiled import CompiledRule, evaluate_rule
from repro.engine.reasons import (
    ADMISSION_PRESSURE,
    GENERALIZATION_TOO_LARGE,
    GOAL_BUDGET_EXCEEDED,
    LOWERING_UNSAFE_EQUATION,
    LOWERING_UNSAFE_HEAD,
    LOWERING_UNSAFE_NEGATION,
    MAINTENANCE_BUDGET_EXCEEDED,
    MAINTENANCE_UNSUPPORTED,
    REASON_CODES,
    REWRITE_UNSUPPORTED,
    SERVICE_CAPACITY,
    SNAPSHOT_UNSUPPORTED,
    TENANT_CAPACITY,
    maintenance_reason,
    reason,
    reason_code,
)
from repro.errors import EvaluationBudgetExceeded, EvaluationError, UnsafeRuleError
from repro.io.serialization import instance_to_text
from repro.model import Fact, Instance, path, unary_instance
from repro.parser import parse_program, parse_rule
from repro.queries import get_query
from repro.service import AdmissionLimits, ServiceError, SessionRegistry, TenantBudget
from repro.workloads import prefix_tree_instance

REACHABILITY_PAIRS = """
T(@x, @y) :- E(@x, @y).
T(@x, @z) :- T(@x, @y), E(@y, @z).
"""

DESCENDANTS = """
D($t, $t) :- N($t).
D($s, $t) :- D($s.a, $t).
D($s, $t) :- D($s.b, $t).
"""


def pair_query(**overrides):
    options = dict(require_monadic=False)
    options.update(overrides)
    return ProgramQuery(parse_program(REACHABILITY_PAIRS), {"E": 2}, "T", **options)


def line_instance(length=6):
    instance = Instance()
    nodes = ["a"] + [f"n{i}" for i in range(1, length)]
    for source, target in zip(nodes, nodes[1:]):
        instance.add("E", source, target)
    return instance


def edge(source, target):
    return Fact("E", (path(source), path(target)))


def assert_registered(value, expected_code):
    """The emitted reason parses to *expected_code*, which is registered."""
    assert value is not None
    assert reason_code(value) == expected_code
    assert reason_code(value) in REASON_CODES


class TestFormatting:
    def test_bare_code_round_trips(self):
        assert reason(TENANT_CAPACITY) == "tenant_capacity"
        assert reason_code("tenant_capacity") == TENANT_CAPACITY

    def test_detail_is_prefixed_and_parsed_off(self):
        value = reason(MAINTENANCE_UNSUPPORTED, "stray relation 'Q': a: b")
        assert value == "maintenance_unsupported: stray relation 'Q': a: b"
        # Only the first colon splits: details may contain colons freely.
        assert reason_code(value) == MAINTENANCE_UNSUPPORTED

    def test_unregistered_codes_are_rejected(self):
        with pytest.raises(AssertionError, match="unregistered"):
            reason("mystery_reason")

    def test_maintenance_failures_classify_budget_vs_unsupported(self):
        budget = maintenance_reason(
            EvaluationBudgetExceeded("too many facts", limit_name="max_facts")
        )
        assert_registered(budget, MAINTENANCE_BUDGET_EXCEEDED)
        assert "too many facts" in budget
        other = maintenance_reason(EvaluationError("stray relation"))
        assert_registered(other, MAINTENANCE_UNSUPPORTED)


class TestEmittedReasonsAreRegistered:
    """One real emission per code, through the public serving surfaces."""

    def test_rewrite_refusal(self):
        query = get_query("only_as_air").make_query()
        result = query.session(unary_instance("R", ["aa", "ab"])).run(mode="goal")
        assert result.mode == "full"
        assert_registered(result.fallback_reason, REWRITE_UNSUPPORTED)

    def test_goal_budget_breach(self):
        baseline = pair_query().run(line_instance(), binding={0: "a"})
        tight = pair_query(
            limits=EvaluationLimits(max_iterations=baseline.statistics.iterations)
        )
        result = tight.session(line_instance()).run(binding={0: "a"}, mode="goal")
        assert result.mode == "full"
        assert_registered(result.fallback_reason, GOAL_BUDGET_EXCEEDED)

    def test_generalization_guard(self):
        query = ProgramQuery(
            parse_program(DESCENDANTS), {"N": 1}, "D", require_monadic=False
        )
        session = query.session(
            prefix_tree_instance(depth=4, seed=3), generalization_limit=1.0
        )
        result = session.run(binding={0: path("a", "b")}, mode="goal")
        assert result.mode == "full"
        assert_registered(result.fallback_reason, GENERALIZATION_TOO_LARGE)

    def test_maintenance_budget_breach(self):
        # The initial line fits max_facts; the poison chain derives past it
        # mid-maintenance, so the update records a budget fallback.
        query = pair_query(limits=EvaluationLimits(max_facts=30))
        session = query.session(line_instance(4))
        session.run()
        poison = [edge("n3", "m0")] + [edge(f"m{i}", f"m{i + 1}") for i in range(7)]
        update = session.update(additions=poison)
        assert not update.maintained
        assert_registered(update.fallback_reason, MAINTENANCE_BUDGET_EXCEEDED)
        assert_registered(session.last_maintenance_fallback, MAINTENANCE_BUDGET_EXCEEDED)

    def test_snapshot_version_refusal(self, tmp_path):
        """Both version guards — in-memory state and on-disk snapshot —
        emit the registered ``snapshot_unsupported`` reason."""
        from repro.engine.query import QuerySession
        from repro.errors import SnapshotUnsupportedError
        from repro.io.durability import SessionDurability

        query = pair_query()
        session = query.session(line_instance())
        session.run()
        state = session.export_state()
        session.close()
        state["version"] = 99
        with pytest.raises(SnapshotUnsupportedError) as caught:
            QuerySession.restore(pair_query(), state)
        assert_registered(str(caught.value), SNAPSHOT_UNSUPPORTED)

        durability = SessionDurability(tmp_path)
        durability.initialize({}, {"edb": {}}, generation=0)
        durability.close()
        from json import dumps, loads

        (_generation, snap_path) = durability.snapshot_paths()[-1]
        document = loads(snap_path.read_text())
        document["version"] = 99
        snap_path.write_text(dumps(document))
        with pytest.raises(SnapshotUnsupportedError) as caught:
            SessionDurability(tmp_path).recover()
        assert_registered(str(caught.value), SNAPSHOT_UNSUPPORTED)

    @pytest.mark.parametrize(
        "rule_text, code",
        [
            ("T($x, $y) :- R($x).", LOWERING_UNSAFE_HEAD),
            ("T($x) :- R($x), not Q($x, $y).", LOWERING_UNSAFE_NEGATION),
            ("T($x) :- R($x), $x != $y.", LOWERING_UNSAFE_EQUATION),
        ],
    )
    def test_lowering_refusals(self, rule_text, code):
        """Why a rule has no id-space plan: only an unsafe rule has none; the
        plan keeps the reason and raises it when the rule is evaluated."""
        plan = CompiledRule(parse_rule(rule_text))
        assert_registered(plan.lowering_refusal, code)
        instance = unary_instance("R", ["a"])
        for evaluate in (
            lambda: plan.head_rows(instance),
            lambda: plan.derive(instance),
            lambda: plan.derivation_counts(instance),
            lambda: plan.derivable_rows(instance, [(0,)]),
        ):
            with pytest.raises(UnsafeRuleError) as caught:
                evaluate()
            assert_registered(str(caught.value), code)
        # A safe rule is not refused.
        safe = CompiledRule(parse_rule("T($x) :- R($x), $x != $x.a."))
        assert safe.head_step is not None and safe.lowering_refusal is None

    def test_an_unorderable_equation_is_refused_with_a_registered_reason(self):
        """No side of ``$y = $z`` is ever bound, so the rule has no static body
        order; evaluating it raises the registered reason, detail kept."""
        with pytest.raises(UnsafeRuleError) as caught:
            evaluate_rule(parse_rule("T($x) :- R($x), $y = $z."), unary_instance("R", ["a"]))
        assert_registered(str(caught.value), LOWERING_UNSAFE_EQUATION)
        assert "no side becomes fully bound" in str(caught.value)

    def test_an_equation_no_side_of_which_gets_bound_is_refused(self):
        """Lowered in the order given, the same rule names the equation."""
        rule = parse_rule("T($x) :- R($x), $y = $z.")
        plan = CompiledRule(rule, rule.body)
        assert_registered(plan.lowering_refusal, LOWERING_UNSAFE_EQUATION)

    def test_service_eviction_reasons(self):
        registry = SessionRegistry(
            max_sessions=2,
            tenant_budgets={
                "noisy": TenantBudget(
                    max_sessions=1,
                    admission=AdmissionLimits(max_edb_facts=2),
                )
            },
        )
        program = REACHABILITY_PAIRS
        text = instance_to_text(line_instance(4))

        async def scenario():
            first = await registry.create(tenant="noisy", program=program, instance=text)
            # Tenant budget (max_sessions=1): the replacement evicts `first`.
            noisy = await registry.create(tenant="noisy", program=program, instance=text)
            quiet = await registry.create(tenant="quiet", program=program, instance=text)
            # Service-wide capacity with nobody shedding: global LRU victim.
            await registry.create(tenant="quiet", program=program, instance=text)
            # Now the noisy tenant sheds (EDB budget), building pressure ...
            survivor = await registry.create(tenant="noisy", program=program, instance=text)
            for index in range(3):
                with pytest.raises(ServiceError):
                    await survivor.enqueue_update([edge(f"x{index}", f"y{index}")])
            registry.get(survivor.session_id)  # MRU: plain LRU would spare it
            # ... so admission pressure picks its session over the LRU one.
            await registry.create(tenant="quiet", program=program, instance=text)
            return first, noisy, quiet, survivor

        asyncio.run(scenario())
        codes = [reason_code(value) for _, value in registry.evictions]
        assert TENANT_CAPACITY in codes
        assert SERVICE_CAPACITY in codes
        assert ADMISSION_PRESSURE in codes
        for code in codes:
            assert code in REASON_CODES
        registry.close_all()
