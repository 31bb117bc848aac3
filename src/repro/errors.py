"""Exception hierarchy for the Sequence Datalog reproduction library.

All library-specific errors derive from :class:`SequenceDatalogError` so that
callers can catch everything raised by this package with a single handler
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class SequenceDatalogError(Exception):
    """Base class of all errors raised by the :mod:`repro` package."""


class ModelError(SequenceDatalogError):
    """Raised for invalid values, paths, facts, schemas, or instances."""


class SyntaxSemanticError(SequenceDatalogError):
    """Raised for structurally invalid programs (bad arity use, etc.)."""


class UnsafeRuleError(SyntaxSemanticError):
    """Raised when a rule is not safe (contains non-limited variables)."""


class StratificationError(SyntaxSemanticError):
    """Raised when a program cannot be stratified, or violates its strata."""


class ParseError(SequenceDatalogError):
    """Raised when textual Sequence Datalog input cannot be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class EvaluationError(SequenceDatalogError):
    """Raised for runtime evaluation failures."""


class EvaluationBudgetExceeded(EvaluationError):
    """Raised when a fixpoint computation exceeds its resource limits.

    Sequence Datalog programs need not terminate (Example 2.3 in the paper);
    the engine therefore enforces explicit limits and reports their breach
    with this exception rather than looping forever.
    """

    def __init__(self, message: str, *, limit_name: str | None = None):
        super().__init__(message)
        self.limit_name = limit_name


class MaintenanceUnsupportedError(EvaluationError):
    """Raised when incremental maintenance cannot soundly cover an update.

    Counting and delete–rederive maintenance handle positive delta
    propagation; updates that reach a relation used under negation (or
    programs whose strata the maintainer cannot own, e.g. a relation defined
    in several strata) must be answered by re-evaluating from scratch.  The
    message records the reason so the query layer can report why the
    fallback happened, mirroring the goal-mode fallback contract.
    """


class TransformationError(SequenceDatalogError):
    """Raised when a program transformation's preconditions are violated."""


class MagicSetUnsupportedError(TransformationError):
    """Raised when the magic-set rewriting would be unsound or non-terminating.

    Goal-directed evaluation must fall back to full evaluation in these cases
    (negation on derived relations, or recursive magic predicates that could
    grow paths without bound); the message records the reason so the query
    layer can report why the fallback happened.
    """


class ExpandingMagicRecursionError(MagicSetUnsupportedError):
    """The termination-specific refusal: a magic predicate on a recursion
    cycle could grow its bound path arguments without bound.

    Unlike the soundness refusals, this one can often be *relaxed*: rewriting
    for a more general goal adornment (fewer bound positions) removes the
    expanding argument from the magic predicate, and the subgoal answer
    tables (:mod:`repro.engine.tabling`) then serve the original, more
    specific call from the generalized goal's answers.
    ``magic_rewrite(..., on_expanding="generalize")`` performs that retry.
    """


class SubgoalTableError(EvaluationError):
    """Raised on invalid use of a subgoal answer table
    (:mod:`repro.engine.tabling`), e.g. inserting an entry whose seed does
    not match its adornment's bound positions."""


class SnapshotUnsupportedError(SequenceDatalogError):
    """Raised when a persisted session snapshot cannot be loaded by this build.

    The durability layer (:mod:`repro.io.durability`) writes versioned
    snapshot documents; a snapshot that parses but declares a format or
    version this build does not understand is refused with this error —
    loudly, instead of silently falling back to an older snapshot (which
    would resurrect stale state) or crashing with a ``KeyError`` deep in
    the decoder.  The message carries a ``snapshot_unsupported`` reason
    code (:mod:`repro.engine.reasons`).
    """


class DirectoryInUseError(SequenceDatalogError):
    """Raised when a session directory already has a writer.

    A :class:`~repro.io.durability.SessionDurability` that initializes or
    reopens a directory takes an exclusive lock on it first; a second
    opener — another registry, in this process or any other — is refused
    with this error instead of writing a log the first one also writes.
    """


class UnificationError(SequenceDatalogError):
    """Raised for invalid inputs to the associative unification engine."""


class UnificationBudgetExceeded(UnificationError):
    """Raised when the pig-pug search exceeds its node budget.

    For equations that are not one-sided nonlinear the procedure may not
    terminate (footnote 3 of the paper); a budget keeps the search finite.
    """


class AlgebraError(SequenceDatalogError):
    """Raised for invalid sequence relational algebra expressions."""


class CompilationError(SequenceDatalogError):
    """Raised when a program cannot be compiled to the sequence algebra."""
