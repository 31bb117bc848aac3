"""What a server or a library user imports stays free of ``networkx`` — and of the test oracle.

The graph library is a dependency of the helpers whose contract is an
``nx.DiGraph`` (``Program.dependency_graph``, the Hasse diagram,
``SearchTree.to_networkx``) and of nothing else: importing it costs every
process that merely parses, evaluates and serves ≈0.2 s and ≈16 MB.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SERVING_WITHOUT_NETWORKX = '''
import sys

sys.modules["networkx"] = None  # any import of it now raises ImportError

import repro.service.http
import repro.queries.canonical
from repro import Fact, ProgramQuery, evaluate_program, parse_program
from repro.io import instance_from_text

program = parse_program("""
    Blocked(@x) :- Blocklist(@x).
    T(@x, @y) :- E(@x, @y), not Blocked(@y).
    T(@x, @z) :- T(@x, @y), E(@y, @z), not Blocked(@z).
""")
assert program.uses_recursion() and len(program.strata) == 2
instance = instance_from_text("E(a, b). E(b, c). E(c, d). E(b, e). Blocklist(e).")
assert len(evaluate_program(program, instance).relation("T")) == 6

query = ProgramQuery(program, {"E": 2, "Blocklist": 1}, "T", require_monadic=False)
session = query.session(instance)
assert len(session.run(binding={0: "b"}, mode="goal").output.relation("T")) == 2
session.run()
result = session.update([Fact("E", ("a", "e"))], [Fact("E", ("b", "c"))])
assert result.maintained
assert len(session.run().output.relation("T")) == 2
print("served without networkx")
'''


def test_parsing_evaluating_and_serving_never_import_networkx():
    source_root = str(Path(repro.__file__).resolve().parents[1])
    finished = subprocess.run(
        [sys.executable, "-c", SERVING_WITHOUT_NETWORKX],
        env=dict(os.environ, PYTHONPATH=source_root),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
    assert finished.stdout.strip() == "served without networkx"


@pytest.mark.parametrize("package", ["repro.engine", "repro.storage", "repro.service"])
def test_every_exported_name_resolves(package):
    """A deleted module leaves its names behind in ``__all__`` first."""
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_one_evaluator_in_production_and_the_oracle_off_its_import_path():
    """``repro.engine.reference`` is the tests' oracle; nothing a server or a
    library user imports may pull it in."""
    source_root = str(Path(repro.__file__).resolve().parents[1])
    script = (
        "import sys, repro, repro.service, repro.service.http, repro.queries.canonical\n"
        "assert 'repro.engine.evaluation' in sys.modules\n"
        "assert 'repro.engine.reference' not in sys.modules\n"
    )
    finished = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=source_root),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr

    # ... and with one evaluator there is no mode left to name on a signature.
    from repro.engine import (
        CompiledProgram,
        CompiledRule,
        MaintainedFixpoint,
        ProgramQuery,
        evaluate_program,
        evaluate_stratum,
        propagate_delta,
    )

    callables = [
        CompiledRule.__init__,
        CompiledRule.head_rows,
        CompiledRule.derive,
        CompiledRule.derivation_counts,
        CompiledRule.derivable_rows,
        CompiledProgram.__init__,
        evaluate_stratum,
        evaluate_program,
        propagate_delta,
        MaintainedFixpoint.__init__,
        MaintainedFixpoint.evaluate,
        MaintainedFixpoint.from_support,
        ProgramQuery.__init__,
    ]
    for function in callables:
        parameters = inspect.signature(function).parameters
        assert not {"execution", "strategy"} & parameters.keys(), function.__qualname__
