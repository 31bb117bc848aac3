"""The closed set of machine-readable fallback and eviction reason codes.

Every stringly-typed reason the engine emits — a
:class:`~repro.engine.query.QueryResult.fallback_reason`, an
:class:`~repro.engine.query.UpdateResult.fallback_reason`, an
:class:`~repro.engine.tabling.AnswerTable` eviction reason, or a
:class:`~repro.service.core.SessionRegistry` session-eviction reason — is
formatted as either a bare code or ``<code>: <detail>``.  The code names the
*class* of fallback (stable, greppable, safe to branch on); the detail is
human-oriented context that may change freely.  :func:`reason_code` parses a
reason back to its code, and the test suite asserts every emitted reason
parses to a member of :data:`REASON_CODES` — adding a new reason without
registering it here is a test failure, which is the point: callers dispatch
on these strings, so the set must stay closed and documented.

Codes
-----

``rewrite_unsupported``
    The magic-set rewriting refused the goal (expanding magic recursion even
    after generalization); goal-directed requests fall back to full
    evaluation and the refusal is cached per adornment.
``goal_budget_exceeded``
    A goal-directed evaluation breached the session's evaluation limits;
    the call fell back to full evaluation.
``generalization_too_large``
    The goal was rewritten for a generalized adornment whose sweep the
    session's :attr:`generalization_limit` prices as worse than full
    evaluation (see ``QuerySession._generalization_guard``).
``maintenance_unsupported``
    Incremental maintenance cannot soundly cover the update or program
    shape (stray relations, multi-stratum heads, unstratified negation);
    the materialization (or table entry) is dropped and rebuilt on demand.
``maintenance_budget_exceeded``
    Maintenance itself breached the evaluation limits mid-update; the
    half-updated artifact is dropped rather than served inconsistent.
``snapshot_unsupported``
    A persisted session snapshot parsed but declared a format or version
    this build does not understand; the restore is refused with
    :class:`~repro.errors.SnapshotUnsupportedError` instead of silently
    falling back to older state or crashing in the decoder.
``tenant_capacity``
    The service registry evicted the tenant's least-recently-used session
    to admit a new one within the tenant's session budget.
``service_capacity``
    As ``tenant_capacity``, but for the service-wide session budget.
``admission_pressure``
    The service registry evicted a session of the tenant generating the
    most shed work (admission pressure) in preference to the global LRU
    victim, keeping well-behaved tenants resident under a hostile load.
``lowering_unsafe_head`` / ``lowering_unsafe_negation`` / ``lowering_unsafe_equation``
    Why a rule has no id-space plan
    (:attr:`~repro.engine.compiled.CompiledRule.lowering_refusal`, raised
    as :class:`~repro.errors.UnsafeRuleError` when the rule is evaluated): a
    variable of the head, or of a negated predicate, is bound by no positive
    predicate or equation, or no side of an equation ever becomes bound.
    Every safe rule lowers; these name what makes a rule unsafe.
"""

from repro.errors import EvaluationBudgetExceeded

REWRITE_UNSUPPORTED = "rewrite_unsupported"
GOAL_BUDGET_EXCEEDED = "goal_budget_exceeded"
GENERALIZATION_TOO_LARGE = "generalization_too_large"
MAINTENANCE_UNSUPPORTED = "maintenance_unsupported"
MAINTENANCE_BUDGET_EXCEEDED = "maintenance_budget_exceeded"
SNAPSHOT_UNSUPPORTED = "snapshot_unsupported"
TENANT_CAPACITY = "tenant_capacity"
SERVICE_CAPACITY = "service_capacity"
ADMISSION_PRESSURE = "admission_pressure"
LOWERING_UNSAFE_HEAD = "lowering_unsafe_head"
LOWERING_UNSAFE_NEGATION = "lowering_unsafe_negation"
LOWERING_UNSAFE_EQUATION = "lowering_unsafe_equation"

#: Every code the engine may emit.  Closed by test: an emitted reason whose
#: code is not listed here fails ``tests/engine/test_reasons.py``.
REASON_CODES = frozenset(
    {
        REWRITE_UNSUPPORTED,
        GOAL_BUDGET_EXCEEDED,
        GENERALIZATION_TOO_LARGE,
        MAINTENANCE_UNSUPPORTED,
        MAINTENANCE_BUDGET_EXCEEDED,
        SNAPSHOT_UNSUPPORTED,
        TENANT_CAPACITY,
        SERVICE_CAPACITY,
        ADMISSION_PRESSURE,
        LOWERING_UNSAFE_HEAD,
        LOWERING_UNSAFE_NEGATION,
        LOWERING_UNSAFE_EQUATION,
    }
)


def reason(code: str, detail: "str | None" = None) -> str:
    """Format a reason string: the bare *code*, or ``code: detail``."""
    assert code in REASON_CODES, f"unregistered reason code {code!r}"
    return code if detail is None else f"{code}: {detail}"


def reason_code(value: str) -> str:
    """The code of a formatted reason (everything before the first colon)."""
    return value.split(":", 1)[0].strip()


def maintenance_reason(error: Exception) -> str:
    """Classify a maintenance failure: budget breach vs. unsupported shape."""
    code = (
        MAINTENANCE_BUDGET_EXCEEDED
        if isinstance(error, EvaluationBudgetExceeded)
        else MAINTENANCE_UNSUPPORTED
    )
    return reason(code, str(error))
